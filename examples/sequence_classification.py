"""Frequent pattern-based classification of sequences (paper Section 6).

The paper's closing remark — "the framework is also applicable to more
complex patterns, including sequences" — implemented: PrefixSpan mines
frequent subsequences per class, information gain scores them, the MMR
selection with a coverage constraint picks a discriminative subset, and an
SVM learns on symbol-presence + subsequence features.

Run:  python examples/sequence_classification.py
"""

import numpy as np

from repro.classifiers import LinearSVM
from repro.datasets.sequences import SequenceSpec, generate_sequences
from repro.eval import stratified_kfold
from repro.features.sequence_pipeline import SequencePatternClassifier


def main() -> None:
    spec = SequenceSpec(
        name="motif-sequences",
        n_rows=600,
        alphabet_size=8,
        n_classes=2,
        sequence_length=12,
        motif_length=3,
        motifs_per_class=2,
        motif_strength=0.85,
        seed=7,
    )
    data, motifs = generate_sequences(spec, return_motifs=True)
    print(f"{data.name}: {data.n_rows} sequences over alphabet of "
          f"{data.alphabet_size}, planted motifs: {motifs}")

    train_idx, test_idx = stratified_kfold(data.labels, n_folds=3, seed=0)[0]
    train, test = data.subset(train_idx), data.subset(test_idx)

    # Symbol-presence baseline: same model, zero subsequence features.
    baseline = SequencePatternClassifier(
        classifier=LinearSVM(), min_support=0.25, max_length=3, max_selected=1
    )
    baseline.fit(train)
    print(f"\nsymbols-only-ish baseline: {100 * baseline.score(test):.2f}%")

    model = SequencePatternClassifier(
        classifier=LinearSVM(), min_support=0.2, delta=3, max_length=3
    )
    model.fit(train)
    print(
        f"subsequence Pat_FS:        {100 * model.score(test):.2f}%  "
        f"(mined {model.mined_count_}, selected {len(model.selected_)})"
    )

    print("\ntop selected subsequences (planted motifs should surface):")
    for pattern in model.selected_[:6]:
        print(f"  {pattern.sequence}  support={pattern.support}")


if __name__ == "__main__":
    main()

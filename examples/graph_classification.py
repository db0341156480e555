"""Frequent pattern-based classification of graphs (paper Section 6).

The second future-work direction: a gSpan-style miner finds frequent
connected subgraphs per class, information gain scores them, the MMR
selection with a coverage constraint picks a discriminative subset, and an
SVM learns on subgraph-indicator features — the workflow of frequent
sub-structure-based chemical compound classification (paper reference [7]).

Run:  python examples/graph_classification.py
"""

import numpy as np

from repro.classifiers import LinearSVM
from repro.datasets.graphs import GraphSpec, generate_graphs
from repro.eval import stratified_kfold
from repro.features.graph_pipeline import GraphPatternClassifier


def main() -> None:
    spec = GraphSpec(
        name="motif-graphs",
        n_rows=200,
        n_classes=2,
        graph_size=10,
        motif_size=3,
        motifs_per_class=2,
        motif_strength=0.85,
        seed=13,
    )
    data, motifs = generate_graphs(spec, return_motifs=True)
    print(f"{data.name}: {data.n_rows} graphs, {data.n_classes} classes")
    for class_label, class_motifs in enumerate(motifs):
        for motif in class_motifs:
            edges = [
                (a, b, d["label"]) for a, b, d in motif.edges(data=True)
            ]
            print(f"  class {class_label} motif: nodes="
                  f"{dict(motif.nodes(data='label'))} edges={edges}")

    train_idx, test_idx = stratified_kfold(data.labels, n_folds=3, seed=0)[0]
    train, test = data.subset(train_idx), data.subset(test_idx)

    model = GraphPatternClassifier(
        classifier=LinearSVM(), min_support=0.3, delta=2, max_edges=3
    )
    model.fit(train)
    chance = max(np.bincount(test.labels)) / test.n_rows
    print(f"\nmajority-class baseline:  {100 * chance:.2f}%")
    print(
        f"subgraph Pat_FS:          {100 * model.score(test):.2f}%  "
        f"(mined {model.mined_count_}, selected {len(model.selected_)})"
    )

    print("\ntop selected subgraphs:")
    for pattern in model.selected_[:5]:
        edges = [
            (a, b, d["label"]) for a, b, d in pattern.graph.edges(data=True)
        ]
        print(
            f"  nodes={dict(pattern.graph.nodes(data='label'))} "
            f"edges={edges} support={pattern.support}"
        )


if __name__ == "__main__":
    main()

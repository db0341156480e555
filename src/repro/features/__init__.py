"""Feature mapping and the end-to-end pattern-based classifier.

The sequence and graph classifiers live in
:mod:`repro.features.sequence_pipeline` and
:mod:`repro.features.graph_pipeline` and load on their own import.
"""

from .pipeline import FrequentPatternClassifier
from .transformer import PatternFeaturizer

__all__ = [
    "PatternFeaturizer",
    "FrequentPatternClassifier",
]

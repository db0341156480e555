"""Per-dataset run settings for the paper's experiments.

The paper does not publish per-dataset min_sup values for Tables 1-2, only
the strategy for picking them (Section 3.2).  This registry fixes one
configuration per dataset: a relative in-class ``min_support`` low enough to
recover the planted combinations but high enough that mining stays
tractable on the dataset's density (binary-arity wide datasets are the
dense ones), plus the MMRFS coverage ``delta`` and a pattern length cap.

:class:`ExperimentConfig` is the one definition of the pipeline settings;
:func:`~repro.experiments.tables.make_variant` turns it into a pipeline,
and :class:`~repro.runtime.experiment.ExperimentSpec` extends it with a
run's identity.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ExperimentConfig", "DATASET_CONFIGS", "config_for"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Mining/selection settings of one pipeline (one dataset's defaults)."""

    min_support: float = 0.1
    max_length: int | None = 5
    max_patterns: int | None = 200_000
    delta: int = 3
    relevance: str = "information_gain"


_DEFAULT = ExperimentConfig()

#: Dense (wide, binary-arity) datasets need a higher threshold; the values
#: stay below each dataset's planted per-combo support so the signal
#: patterns remain minable.
DATASET_CONFIGS: dict[str, ExperimentConfig] = {
    "anneal": ExperimentConfig(min_support=0.4, max_length=4),
    "austral": ExperimentConfig(min_support=0.07),
    "auto": ExperimentConfig(min_support=0.25),
    "breast": ExperimentConfig(min_support=0.07),
    "cleve": ExperimentConfig(min_support=0.07),
    "diabetes": ExperimentConfig(min_support=0.07),
    "glass": ExperimentConfig(min_support=0.1),
    "heart": ExperimentConfig(min_support=0.07),
    "hepatic": ExperimentConfig(min_support=0.2),
    "horse": ExperimentConfig(min_support=0.08),
    "iono": ExperimentConfig(min_support=0.25),
    "iris": ExperimentConfig(min_support=0.07),
    "labor": ExperimentConfig(min_support=0.25),
    "lymph": ExperimentConfig(min_support=0.25),
    "pima": ExperimentConfig(min_support=0.07),
    "sonar": ExperimentConfig(min_support=0.25, max_length=4),
    "vehicle": ExperimentConfig(min_support=0.08),
    "wine": ExperimentConfig(min_support=0.07),
    "zoo": ExperimentConfig(min_support=0.2),
    # Scalability datasets (Tables 3-5) sweep min_support explicitly; these
    # defaults are for accuracy-style runs.
    "chess": ExperimentConfig(min_support=0.25, max_length=4),
    "waveform": ExperimentConfig(min_support=0.15, max_length=4),
    "letter": ExperimentConfig(min_support=0.2, max_length=4),
}


def config_for(name: str) -> ExperimentConfig:
    """Settings for a dataset (falls back to package defaults)."""
    return DATASET_CONFIGS.get(name, _DEFAULT)

"""Dataset substrate: schemas, transaction encoding and benchmark generators.

The sequence (:mod:`repro.datasets.sequences`) and graph
(:mod:`repro.datasets.graphs`, needs the ``graphs`` extra) generators load
on their own import.
"""

from .schema import Attribute, Dataset
from .synthetic import SyntheticSpec, generate, plant_structure
from .transactions import ItemCatalog, TransactionDataset
from .uci import UCI_TABLE1_NAMES, available_datasets, load_uci

__all__ = [
    "Attribute",
    "Dataset",
    "ItemCatalog",
    "TransactionDataset",
    "SyntheticSpec",
    "generate",
    "plant_structure",
    "load_uci",
    "available_datasets",
    "UCI_TABLE1_NAMES",
]

"""Simulated marketplace for sharing sensor datasets and learned models.

Participant nodes keep assets in content-addressed stores and describe
them in private knowledge graphs; a serial simulated ledger with two
contracts governs membership, provenance-checked publication, pricing,
and paid acquisition with integrity verification.
"""

from .cas import BlobStore, content_address, is_address
from .contracts import ChainStep, IslContract, OracleContract, walk_provenance
from .depgraph import DependencyGraph, ProvenanceChain
from .errors import IslError
from .kgstore import DatasetDescriptor, KnowledgeGraph, ModelRecord, Triple
from .ledger import Ledger, Receipt
from .mlsim import (
    LinearModel,
    RoomProfile,
    TabularDataset,
    evaluate,
    fine_tune,
    make_synthetic_room,
    train,
)
from .node import IslNode, Network, RankedModel

__version__ = "0.1.0"

__all__ = [
    "BlobStore",
    "ChainStep",
    "DatasetDescriptor",
    "DependencyGraph",
    "IslContract",
    "IslError",
    "IslNode",
    "KnowledgeGraph",
    "Ledger",
    "LinearModel",
    "ModelRecord",
    "Network",
    "OracleContract",
    "ProvenanceChain",
    "RankedModel",
    "Receipt",
    "RoomProfile",
    "TabularDataset",
    "Triple",
    "content_address",
    "evaluate",
    "fine_tune",
    "is_address",
    "make_synthetic_room",
    "train",
    "walk_provenance",
    "__version__",
]

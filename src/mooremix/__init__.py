"""Moore-like bounds and extremal enumeration for mixed graphs."""

from .bounds import (
    BoundReport,
    DegreePair,
    LayerCounts,
    fibonacci_identity_check,
    improved_bound,
    layer_counts,
    moore_bound,
    moore_bound_closed_form,
    moore_bound_matrix,
    moore_table,
)
from .graph import MixedGraph, RepeatMultiset, is_isomorphic
from .search import DiameterMode, SearchSpec, SearchResult, enumerate_classes, max_order
from .spectral import CharPoly, char_poly, cospectral

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CharPoly",
    "DegreePair",
    "DiameterMode",
    "LayerCounts",
    "MixedGraph",
    "RepeatMultiset",
    "SearchResult",
    "SearchSpec",
    "char_poly",
    "cospectral",
    "enumerate_classes",
    "fibonacci_identity_check",
    "improved_bound",
    "is_isomorphic",
    "layer_counts",
    "max_order",
    "moore_bound",
    "moore_bound_closed_form",
    "moore_bound_matrix",
    "moore_table",
]

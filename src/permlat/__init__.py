"""permlat: finite permutation groups, subgroup lattices, and mechanical
verification of subgroup-embedding criteria for supersolvability."""

__version__ = "0.1.0"

from .perms import Perm, parse_cycle_string
from .groups import (
    CayleyTable,
    Group,
    Subgroup,
    close_generators,
    direct_product,
    group_from_cayley,
    p_residual,
    wreath_regular,
    DEFAULT_GROUP_CAP,
)

__all__ = [
    "Perm",
    "parse_cycle_string",
    "CayleyTable",
    "Group",
    "Subgroup",
    "close_generators",
    "direct_product",
    "group_from_cayley",
    "p_residual",
    "wreath_regular",
    "DEFAULT_GROUP_CAP",
    "__version__",
]

"""Exact combinatorics of permutohedra, cyclopermutohedra, and polygonal
linkage configuration spaces.

All arithmetic is exact (integers and fractions); volumes of the form
c / sqrt(n) are carried as a rational coefficient plus an integer radicand.
"""

from __future__ import annotations

from .forests import (
    DecoratedForest,
    LabeledForest,
    PartialDecoratedForest,
    abel_eval,
    enumerate_decorated_forests,
    enumerate_partial_decorated_forests,
    enumerate_trees,
    forest_count,
    forest_gcd_sum,
    reduce_decorated_forest,
    rooted_forest_counts,
)
from .intlin import IntMatrix, determinant, semiopen_lattice_count
from .linkage import (
    CyclicPartition,
    LinkageError,
    LinkageSpec,
    ShortSetProfile,
    a_profile,
    betti,
    betti_vector,
    enumerate_cells,
    equilateral_volume,
    euler_characteristic,
    f_vector,
    is_refinement,
    is_short,
    moduli_volume_forests,
    moduli_volume_theorem,
    validate,
)
from .zonotope import (
    NormalizedVolume,
    lattice_count_bruteforce,
    lattice_count_closed_form,
    permutohedron_lattice_count,
    permutohedron_volume,
    sharp_of_partial_forest,
    volume_bruteforce,
    volume_by_forests,
    volume_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "DecoratedForest",
    "LabeledForest",
    "PartialDecoratedForest",
    "abel_eval",
    "enumerate_decorated_forests",
    "enumerate_partial_decorated_forests",
    "enumerate_trees",
    "forest_count",
    "forest_gcd_sum",
    "reduce_decorated_forest",
    "rooted_forest_counts",
    "IntMatrix",
    "determinant",
    "semiopen_lattice_count",
    "CyclicPartition",
    "LinkageError",
    "LinkageSpec",
    "ShortSetProfile",
    "a_profile",
    "betti",
    "betti_vector",
    "enumerate_cells",
    "equilateral_volume",
    "euler_characteristic",
    "f_vector",
    "is_refinement",
    "is_short",
    "moduli_volume_forests",
    "moduli_volume_theorem",
    "validate",
    "NormalizedVolume",
    "lattice_count_bruteforce",
    "lattice_count_closed_form",
    "permutohedron_lattice_count",
    "permutohedron_volume",
    "sharp_of_partial_forest",
    "volume_bruteforce",
    "volume_by_forests",
    "volume_closed_form",
    "__version__",
]

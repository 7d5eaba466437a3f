"""Exact-arithmetic homological computations for a one-parameter family
of quiver algebras: the periodic projective bimodule resolution, diagonal
maps on it, and the multiplicative structure this induces on Hochschild
cohomology."""

from .algebra import FamilyAlgebra, get_algebra
from .cochains import Cochain, CochainName, HochschildComplex
from .diagonal import ChainMapFamily, DiagonalMaps, HomotopyFamily
from .linalg import QQ, Matrix, PrimeField, kernel_basis, rank
from .pipeline import Pipeline, RunConfig
from .products import Products, UnsupportedRightFactor, star_table
from .quiver import Path, parse_path
from .resolution import Resolution
from .tensorcx import TensorComplex
from .uniform import Label, generator_labels, label_at, label_pair

__all__ = [
    "FamilyAlgebra",
    "get_algebra",
    "Cochain",
    "CochainName",
    "HochschildComplex",
    "ChainMapFamily",
    "DiagonalMaps",
    "HomotopyFamily",
    "QQ",
    "Matrix",
    "PrimeField",
    "kernel_basis",
    "rank",
    "Pipeline",
    "RunConfig",
    "Products",
    "UnsupportedRightFactor",
    "star_table",
    "Path",
    "parse_path",
    "Resolution",
    "TensorComplex",
    "Label",
    "generator_labels",
    "label_at",
    "label_pair",
]

__version__ = "0.1.0"

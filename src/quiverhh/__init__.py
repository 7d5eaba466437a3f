"""Exact-arithmetic homological computations for a one-parameter family
of quiver algebras: the periodic projective bimodule resolution, diagonal
maps on it, and the multiplicative structure this induces on Hochschild
cohomology."""

from .pipeline import Pipeline, RunConfig

__all__ = ["Pipeline", "RunConfig"]

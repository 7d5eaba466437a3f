"""Cochains on the resolution, the induced differential, and cohomology.

A degree-m cochain is a bimodule map from degree m of the resolution to
the algebra, fixed by one element of each generator's corner.  It is
kept as its coordinate vector on the hom basis: the (label number, path
index) pairs of the generators in label order, each followed by its
corner's basis paths in basis order.  The named bases below give the
same spaces the classical generator-by-generator presentation:

    degree 0:        alpha_s^t (s = 0,1,2; t = 0..n) and beta
    degree 3m, m>0:  phi_i^t and psi
    degree 3m+1:     mu_i^t, nu_0, nu_1
    degree 3m+2:     theta_i^t (t = 0..n-1) and eta

Cohomology-class bookkeeping is by canonical residuals: fully reduce a
cocycle against the echelonised coboundary space, which leaves it zero
at every pivot index; two cocycles are cohomologous exactly when their
residuals agree.

Each coboundary map delta^m is one record (columns, cocycles, echelon):
the coboundaries of the degree-m basis cochains, then the kernel and the
echelon of one elimination of those columns: a basis of the degree-m
cocycles and the echelonised coboundaries in degree m + 1.  The map
reads only the labels of m and m + 1 and the shape of m + 1, so
`_map(m)` keys its record by `Resolution.period_rep(m + 1) - 1`: one
period of records serves every degree, and `_map(-1)`, the zero map into
degree 0, is empty.  Every table here is a `Degrees` table.
"""

from __future__ import annotations

from typing import NamedTuple

from .linalg import Matrix, SparseEchelon, accumulate, axpy, kernel_basis
from .quiver import a_cycle, arrow, trivial
from .uniform import Degrees, generator_labels, label_at, label_index, label_pair


class CochainName(NamedTuple):
    kind: str  # 'alpha','beta','phi','psi','mu','nu','theta','eta'
    i: int | None = None
    t: int | None = None

    def __str__(self):
        if self.kind in ("beta", "psi", "eta"):
            return self.kind
        if self.kind == "nu":
            return f"nu_{self.i}"
        return f"{self.kind}_{self.i}^{self.t}"


class Cochain:
    """A degree-m cochain as its coordinate vector {position in
    `hom_basis(m)`: coeff}, with no zero stored, so equal cochains have
    equal vectors and the zero cochain's is empty."""

    __slots__ = ("degree", "vec", "name")

    def __init__(self, degree, vec, name=None):
        self.degree = degree
        self.vec = vec
        self.name = name

    def __eq__(self, other):
        return isinstance(other, Cochain) and (self.degree, self.vec) == (other.degree, other.vec)

    def is_zero(self):
        return not self.vec


class HochschildComplex:
    def __init__(self, resolution):
        self.res = resolution
        self.alg = resolution.algebra
        self.n = resolution.n
        self.field = resolution.field
        self._hom_basis = Degrees(self._hom_basis_at, upward=False)
        self._maps = Degrees(self._map_at, upward=False)

    # -- coordinates ------------------------------------------------------

    def hom_basis(self, m):
        """Scalar basis of the cochain space, (label number, corner path
        index) pairs, and its index {pair: position}."""
        return self._hom_basis[m]

    def _hom_basis_at(self, m):
        corners, index = self.alg.corners, self.alg.basis_index
        out = [
            (label_index(lab), index[p])
            for lab in generator_labels(m)
            for p in corners[label_pair(lab)]
        ]
        return out, {k: i for i, k in enumerate(out)}

    def hom_dim(self, m):
        return len(self.hom_basis(m)[0])

    def zero_cochain(self, m):
        return Cochain(m, {})

    def add(self, f, g):
        if f.degree != g.degree:
            raise ValueError(f"cannot add cochains of degrees {f.degree} and {g.degree}")
        return Cochain(f.degree, axpy(dict(f.vec), 1, g.vec, self.field.p))

    def scale(self, c, f):
        return Cochain(f.degree, axpy({}, c, f.vec, self.field.p))

    # -- the induced differential ------------------------------------------

    def coboundary(self, cochain):
        """The induced differential: precompose with the boundary map."""
        cols, vec = self._map(cochain.degree)[0], {}
        for j, c in cochain.vec.items():
            axpy(vec, c, cols[j], self.field.p)
        return Cochain(cochain.degree + 1, vec)

    def is_cocycle(self, cochain):
        return self.coboundary(cochain).is_zero()

    # -- cohomology ---------------------------------------------------------

    def _map(self, m):
        """The record (columns, cocycles, echelon) of the coboundary out of
        degree m, shared with `period_rep(m + 1) - 1`."""
        return self._maps[self.res.period_rep(m + 1) - 1]

    def _map_at(self, m):
        if m < 0:
            return [], [], SparseEchelon(self.field.p)
        columns = self._coboundary_columns_at(m)
        return (columns, *kernel_basis(Matrix(self.hom_dim(m + 1), columns), self.field.p))

    def _coboundary_columns_at(self, m):
        # the coboundary of basis cochain (g, p) sends each degree-(m+1)
        # generator h to the sum of c * left . p . right over the terms
        # (g, left, right) with coefficient c of h's boundary
        res, rows, target = self.res, self.alg.product_rows, self.hom_basis(m + 1)[1]
        faces = {}  # label number g -> [(h, left, right, c)]
        for gen, terms in zip(generator_labels(m + 1), res.shape(m + 1)):
            h = label_index(gen)
            boundary = accumulate((((g, x, y), sign) for x, g, y, sign in terms), self.field.p)
            for (g, left, right), c in boundary.items():
                faces.setdefault(g, []).append((h, left, right, c))
        columns = []
        for g, p in self.hom_basis(m)[0]:
            terms = []
            for h, left, right, c in faces.get(g, ()):
                q = rows[left][p]
                if q is not None and (q := rows[q][right]) is not None:
                    terms.append((target[(h, q)], c))
            columns.append(accumulate(terms, self.field.p))
        return columns

    def class_residual(self, cochain):
        """Canonical representative vector of the cohomology class."""
        if not self.is_cocycle(cochain):
            raise ValueError("not a cocycle")
        res = self._map(cochain.degree - 1)[2].reduce(cochain.vec)
        return tuple(sorted(res.items()))

    def classes_equal(self, f, g):
        return self.class_residual(f) == self.class_residual(g)

    def cohomology(self, m):
        """(dimension, representative cocycles) of degree-m cohomology.

        The representatives are the cocycle-space basis vectors that are
        independent modulo the coboundaries and the earlier ones.
        """
        combined = SparseEchelon(self.field.p)
        combined.rows.update(self._map(m - 1)[2].rows)
        reps = [Cochain(m, vec) for vec in self._map(m)[1] if combined.add(vec) is not None]
        return len(reps), reps

    def hh_dimension(self, m):
        return self.cohomology(m)[0]

    # -- named bases ---------------------------------------------------------

    def named_basis(self, m):
        """The classical named cochain basis at degree m."""
        n, index, path_index = self.n, self.hom_basis(m)[1], self.alg.basis_index
        out = []

        def mk(name, lab, path):
            out.append(Cochain(m, {index[(label_index(lab), path_index[path])]: 1}, name))

        if m % 3 == 0:
            kind = "alpha" if m == 0 else "phi"
            for s in range(3):
                for t in range(n + 1):
                    lab = label_at(m, f"e{s}", f"e{s}")
                    mk(CochainName(kind, s, t), lab, a_cycle(s, 3 * t))
            name = CochainName("beta" if m == 0 else "psi")
            mk(name, label_at(m, "f1", "f1"), trivial("f1"))
        elif m % 3 == 1:
            for i in range(3):
                for t in range(n + 1):
                    lab = label_at(m, f"e{i}", f"e{(i + 1) % 3}")
                    mk(CochainName("mu", i, t), lab, a_cycle(i, 3 * t + 1))
            mk(CochainName("nu", 0), label_at(m, "e0", "f1"), arrow("b0"))
            mk(CochainName("nu", 1), label_at(m, "f1", "e2"), arrow("b1"))
        else:
            for i in range(3):
                for t in range(n):
                    lab = label_at(m, f"e{i}", f"e{(i + 2) % 3}")
                    mk(CochainName("theta", i, t), lab, a_cycle(i, 3 * t + 2))
            mk(CochainName("eta"), label_at(m, "e0", "e2"), a_cycle(0, 3 * n + 2))
        return out

    def named(self, m, name):
        for c in self.named_basis(m):
            if c.name == name:
                return c
        raise KeyError(f"no named cochain {name} at degree {m}")

    # -- the distinguished classes for the first family member ---------------

    def x_cochain(self):
        """Sum of all degree-0 diagonal projections: the unit cocycle."""
        c = self.zero_cochain(0)
        for nm in self.named_basis(0):
            if nm.name.t in (0, None):
                c = self.add(c, nm)
        return c

    def y_cochain(self):
        h = self.named(1, CochainName("mu", 0, 0))
        return self.add(h, self.named(1, CochainName("nu", 0)))

    def z_cochain(self):
        c = self.named(6, CochainName("phi", 0, 0))
        c = self.add(c, self.named(6, CochainName("phi", 1, 0)))
        c = self.add(c, self.named(6, CochainName("phi", 2, 0)))
        return self.add(c, self.scale(-1, self.named(6, CochainName("psi"))))

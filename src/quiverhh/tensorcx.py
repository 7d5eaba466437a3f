"""The total complex of the resolution tensored with itself over the algebra.

A scalar basis element in total degree a+b is a quintuple of ints

    (g1, g2, left, mid, right)

with g1 the number of a label of degree a and g2 of a label of degree b,
and `left`, `mid` and `right` the indices of basis paths: `left` ends at
the origin of g1, `mid` runs from the terminus of g1 to the origin of
g2, and `right` starts at the terminus of g2.  These are the numbers of
the resolution's own elements (`resolution.py`): a label is numbered by
`uniform.label_index` (8 * degree + its position among the generators
of its degree, so its degree is g >> 3) and a path by
`FamilyAlgebra.basis_index`.  The middle slot is the canonical home for
everything between the two generators; a pure tensor of two generators
is zero unless the inner vertices match.  Tensor elements are dicts
{quintuple: coefficient}.

The total differential applies the boundary on either factor, with the
sign (-1)^a on the second factor, and drops the augmentation (factors of
degree 0 contribute nothing from their own boundary).  It reads each
label's boundary shape from `Resolution.shape` and every product of
paths from the algebra's `product_rows`, so it hashes nothing but ints.

`Label` and `Path` objects meet the index form only at its edges:
`augment` returns an algebra element; a homotopy file is read straight
into numbers (`pipeline._terms_from_json`); and a printed term names its
numbers (`pipeline._terms_json`).
"""

from __future__ import annotations

from .linalg import accumulate


class TensorComplex:
    def __init__(self, resolution):
        self.res = resolution
        self.algebra = alg = resolution.algebra
        self.field = resolution.field
        self.rows = alg.product_rows

    # -- construction ---------------------------------------------------

    def tensor(self, elem_a, elem_b):
        """Normalised tensor of two resolution elements (any decorations).

        The right decoration of the first factor and the left decoration
        of the second multiply into the middle slot; terms whose middle
        product vanishes are dropped.
        """
        rows = self.rows
        return accumulate(
            (
                ((g1, g2, l1, mid, r2), c1 * c2)
                for (g1, l1, r1), c1 in elem_a.items()
                for (g2, l2, r2), c2 in elem_b.items()
                if (mid := rows[r1][l2]) is not None
            ),
            self.field.p,
        )

    def act(self, x, elem, y):
        """Outer bimodule action by basis path indices: x on the left slot,
        y on the right."""
        rows = self.rows
        row_x = rows[x]
        return accumulate(
            (
                ((g1, g2, nl, mid, nr), c)
                for (g1, g2, left, mid, right), c in elem.items()
                if (nl := row_x[left]) is not None and (nr := rows[right][y]) is not None
            ),
            self.field.p,
        )

    # -- differential -----------------------------------------------------

    def differential(self, elem):
        rows, shape = self.rows, self.res.shape

        def terms():
            for (g1, g2, left, mid, right), c in elem.items():
                a = g1 >> 3
                if a:
                    row_left = rows[left]
                    for x, tgt, y, sign in shape(a)[g1 & 7]:
                        nl = row_left[x]
                        if nl is None:
                            continue
                        nm = rows[y][mid]
                        if nm is None:
                            continue
                        yield (tgt, g2, nl, nm, right), c if sign > 0 else -c
                b = g2 >> 3
                if b:
                    c2 = -c if a & 1 else c
                    row_mid = rows[mid]
                    for x, tgt, y, sign in shape(b)[g2 & 7]:
                        nm = row_mid[x]
                        if nm is None:
                            continue
                        nr = rows[y][right]
                        if nr is None:
                            continue
                        yield (g1, tgt, left, nm, nr), c2 if sign > 0 else -c2

        return accumulate(terms(), self.field.p)

    def augment(self, elem):
        """Apply the augmentation on both factors and multiply out: an
        algebra element {Path: coefficient}."""
        rows, basis = self.rows, self.algebra.basis
        return accumulate(
            (
                (basis[q], c)
                for (g1, g2, left, mid, right), c in elem.items()
                if (q := rows[left][mid]) is not None and (q := rows[q][right]) is not None
            ),
            self.field.p,
        )

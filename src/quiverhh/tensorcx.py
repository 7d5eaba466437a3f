"""The total complex of the resolution tensored with itself over the algebra.

A scalar basis element in total degree a+b is a quintuple

    (g1, g2, left, mid, right)

with g1 of degree a, g2 of degree b, `left` a basis path ending at the
origin of g1, `mid` a basis path from the terminus of g1 to the origin
of g2, and `right` a basis path starting at the terminus of g2.  The
middle slot is the canonical home for everything between the two
generators; a pure tensor of two generators is zero unless the inner
vertices match.  Tensor elements are dicts {quintuple: coefficient}.

The total differential applies the boundary on either factor, with the
sign (-1)^a on the second factor, and drops the augmentation (factors of
degree 0 contribute nothing from their own boundary).
"""

from __future__ import annotations

from .linalg import accumulate
from .uniform import label_pair


class TensorComplex:
    def __init__(self, resolution):
        self.res = resolution
        self.algebra = resolution.algebra
        self.field = resolution.field

    # -- construction ---------------------------------------------------

    def tensor(self, elem_a, elem_b):
        """Normalised tensor of two resolution elements (any decorations).

        The right decoration of the first factor and the left decoration
        of the second multiply into the middle slot; terms whose middle
        product vanishes are dropped.
        """
        mul = self.algebra.mul_path
        return accumulate(
            (
                ((g1, g2, l1, mid, r2), c1 * c2)
                for (g1, l1, r1), c1 in elem_a.items()
                for (g2, l2, r2), c2 in elem_b.items()
                if (mid := mul(r1, l2)) is not None
            ),
            self.field.p,
        )

    def act(self, x, elem, y):
        """Outer bimodule action by paths: x on the left slot, y on the right."""
        mul = self.algebra.mul_path
        return accumulate(
            (
                ((g1, g2, nl, mid, nr), c)
                for (g1, g2, left, mid, right), c in elem.items()
                if (nl := mul(x, left)) is not None and (nr := mul(right, y)) is not None
            ),
            self.field.p,
        )

    # -- differential -----------------------------------------------------

    def differential(self, elem):
        mul = self.algebra.mul_path
        shape = self.res.shape

        def terms():
            for (g1, g2, left, mid, right), c in elem.items():
                a = g1.degree
                if a >= 1:
                    for x, tgt, y, sign in shape(a)[g1]:
                        nl = mul(left, x)
                        if nl is None:
                            continue
                        nm = mul(y, mid)
                        if nm is None:
                            continue
                        yield (tgt, g2, nl, nm, right), c if sign > 0 else -c
                if g2.degree >= 1:
                    c2 = c if a % 2 == 0 else -c
                    for x, tgt, y, sign in shape(g2.degree)[g2]:
                        nm = mul(mid, x)
                        if nm is None:
                            continue
                        nr = mul(y, right)
                        if nr is None:
                            continue
                        yield (g1, tgt, left, nm, nr), c2 if sign > 0 else -c2

        return accumulate(terms(), self.field.p)

    # -- bases ------------------------------------------------------------

    def triples(self, m):
        """Ordered scalar basis of total degree m."""
        alg = self.algebra
        out = []
        for a in range(m + 1):
            b = m - a
            for g1 in self.res.labels(a):
                o1, t1 = label_pair(g1)
                for g2 in self.res.labels(b):
                    o2, t2 = label_pair(g2)
                    mids = alg.corners[(t1, o2)]
                    if not mids:
                        continue
                    for left in alg.paths_into[o1]:
                        for mid in mids:
                            for right in alg.paths_from[t2]:
                                out.append((g1, g2, left, mid, right))
        return out

    def augment(self, elem):
        """Apply the augmentation on both factors and multiply out."""
        mul = self.algebra.mul_path
        return accumulate(
            (
                (p, c)
                for (g1, g2, left, mid, right), c in elem.items()
                if (p := mul(left, mid)) is not None and (p := mul(p, right)) is not None
            ),
            self.field.p,
        )

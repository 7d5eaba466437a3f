"""Chain-level products on cochains: the published multiplication table,
the product computed through the literal two-corner diagonal, and the
cup product computed through any verified diagonal family.

All computed products use one evaluation rule: on a generator u, sum
over the components of the diagonal's image of u whose bidegree matches
the factors' degrees, reading each quintuple left to right:

    left . f(first generator) . middle . g(second generator) . right

multiplied out in the algebra.  The literal diagonal has components only
in the two outer bidegrees, so products of two positive-degree cochains
vanish under it; that is deviation KD-2.  Its doubled degree-0 diagonal
makes products of two degree-0 cochains come out twice the published
table entry; that is deviation KD-1.
"""

from __future__ import annotations

from .cochains import Cochain, CochainName
from .linalg import accumulate
from .uniform import Degrees


class UnsupportedRightFactor(ValueError):
    """The published table only covers right factors of diagonal type."""


class UnverifiedDiagonal(ValueError):
    """A cup product refused: its diagonal family fails a square it needs."""


def star_table(f_name, g_name, n):
    """The published table entry for f * g, as (CochainName | None).

    None encodes the zero product.  Right factors outside the alpha /
    phi / beta / psi families raise UnsupportedRightFactor (the source
    defers those products to graded commutativity).
    """
    fk, gk = f_name.kind, g_name.kind
    if gk == "alpha" or gk == "phi":
        s, t2 = g_name.i, g_name.t
        if fk in ("alpha", "phi", "mu", "theta"):
            if f_name.i != s:
                return None
            t = f_name.t + t2
            bound = n - 1 if fk == "theta" else n
            return CochainName(fk, f_name.i, t) if t <= bound else None
        if fk == "nu" and f_name.i == 1:
            # published condition: right factor at the shared vertex, t' = 0
            return f_name if (s == 2 and t2 == 0) else None
        if fk == "eta":
            return f_name if s == 2 else None
        return None
    if gk == "beta":
        return f_name if fk in ("beta", "psi") or (fk == "nu" and f_name.i == 0) else None
    if gk == "psi":
        return f_name if fk == "psi" or (fk == "nu" and f_name.i == 0) else None
    raise UnsupportedRightFactor(f"no table column for right factor {g_name}")


class Products:
    def __init__(self, hochschild, diagonal):
        self.hc = hochschild
        self.dm = diagonal
        self.alg = hochschild.alg
        self.field = hochschild.field
        self.literal = diagonal.literal_family()
        self._names = Degrees(self._names_at, upward=False)

    def _names_at(self, m):
        """{hom basis position: name} of the named basis at degree m."""
        return {i: named.name for named in self.hc.named_basis(m) for i in named.vec}

    # -- evaluation through a diagonal --------------------------------------

    def _product_on(self, family, f, g):
        """The cochain f . g of degree m = deg f + deg g read off the
        family's degree-m generator images: an image term (g1, g2, left,
        mid, right) with coefficient c of generator h adds c * c1 * c2 at
        the hom basis position of (h, left . p1 . mid . p2 . right) for
        each coordinate c1 of f at (g1, p1) and c2 of g at (g2, p2)."""
        m = f.degree + g.degree
        rows, index = self.alg.product_rows, self.hc.hom_basis(m)[1]
        # each factor's coordinates by label number; a label of another
        # degree finds none
        fv, gv = {}, {}
        for factor, by_label in ((f, fv), (g, gv)):
            basis = self.hc.hom_basis(factor.degree)[0]
            for i, c in factor.vec.items():
                lab, p = basis[i]
                by_label.setdefault(lab, []).append((p, c))

        def terms():
            for h, image in family.images[m].items():
                for (g1, g2, left, mid, right), c in image.items():
                    f_terms = fv.get(g1)
                    g_terms = gv.get(g2)
                    if not f_terms or not g_terms:
                        continue
                    row_left = rows[left]
                    for p1, c1 in f_terms:
                        q = row_left[p1]
                        if q is None or (q := rows[q][mid]) is None:
                            continue
                        row_q = rows[q]
                        for p2, c2 in g_terms:
                            r = row_q[p2]
                            if r is not None and (r := rows[r][right]) is not None:
                                yield index[(h, r)], c * c1 * c2

        return Cochain(m, accumulate(terms(), self.field.p))

    def star(self, f, g):
        """Product through the literal two-corner diagonal."""
        return self._product_on(self.literal, f, g)

    def cup(self, f, g, family):
        """Product through a diagonal family verified at every square the
        product of classes needs: degrees 0..deg f + deg g + 1."""
        for k in range(f.degree + g.degree + 2):
            if k not in family.verified:
                self.dm.verify_square(family, k)
            if not family.verified[k]:
                raise UnverifiedDiagonal(f"diagonal family not a chain map at degree {k}")
        return self._product_on(family, f, g)

    # -- named output --------------------------------------------------------

    def match_named(self, cochain):
        """(name, c) when the cochain is c times a named basis element,
        else (None, None).  A named element is one hom-basis coordinate
        with coefficient 1, so the cochain must have exactly one nonzero
        coordinate, and a named one."""
        names = self._names[cochain.degree]
        if len(cochain.vec) == 1:
            ((i, c),) = cochain.vec.items()
            if i in names:
                return names[i], c
        return None, None

    def table_comparison(self):
        """Computed two-corner products versus the published table.

        Right factors run over the degree-0 names; left factors over the
        named bases of degrees 0, 3, 1 and 2, in that order.  Each row
        records the computed value, the published value, and a match /
        deviation verdict: a match when the two printed cells agree.
        """
        rows = []
        n = self.hc.n
        right = self.hc.named_basis(0)
        for d in (0, 3, 1, 2):
            for f in self.hc.named_basis(d):
                for g in right:
                    want = star_table(f.name, g.name, n)
                    got = self.star(f, g)
                    got_name, got_coeff = self.match_named(got)
                    want_str = "0" if want is None else str(want)
                    if got.is_zero():
                        got_str = "0"
                    elif got_name is not None:
                        got_str = (
                            str(got_name)
                            if got_coeff == 1
                            else f"{self.field.format(got_coeff)}*{got_name}"
                        )
                    else:
                        got_str = "<unnamed>"
                    rows.append(
                        {
                            "left": str(f.name),
                            "left_degree": d,
                            "right": str(g.name),
                            "table": want_str,
                            "computed": got_str,
                            "status": "match" if got_str == want_str else "deviation",
                        }
                    )
        return rows

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
from .uniform import Degrees, label_index


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
        """{(label, path): name} of the named basis at degree m."""
        return {
            (lab, p): named.name
            for named in self.hc.named_basis(m)
            for lab, v in named.images.items()
            for p in v
        }

    # -- evaluation through a diagonal --------------------------------------

    def _product_on(self, image_of, f, g):
        """(f, g) paired against a diagonal image table at degree deg f + deg g."""
        m = f.degree + g.degree
        alg = self.alg
        rows, index, basis = alg.product_rows, alg.basis_index, alg.basis
        # each factor's images by label number, on path indices; a label of
        # another degree finds none
        fv, gv = (
            {label_index(lab): [(index[p], c) for p, c in v.items()] for lab, v in h.images.items()}
            for h in (f, g)
        )

        def terms(image):
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
                            yield basis[r], c * c1 * c2

        labels = self.hc.res.labels(m)
        return Cochain(m, {lab: accumulate(terms(image_of(lab)), self.field.p) for lab in labels})

    def star(self, f, g):
        """Product through the literal two-corner diagonal."""
        return self._product_on(self.literal.image, f, g)

    def cup(self, f, g, family):
        """Product through a diagonal family verified at every square the
        product of classes needs: degrees 0..deg f + deg g + 1."""
        for k in range(f.degree + g.degree + 2):
            if k not in family.verified:
                self.dm.verify_square(family, k)
            if not family.verified[k]:
                raise UnverifiedDiagonal(f"diagonal family not a chain map at degree {k}")
        return self._product_on(family.image, f, g)

    # -- named output --------------------------------------------------------

    def match_named(self, cochain):
        """(name, c) when the cochain is c times a named basis element,
        else (None, None).  A named element is one hom-basis coordinate
        with coefficient 1, so the cochain must have exactly one nonzero
        coordinate, and a named one."""
        names = self._names[cochain.degree]
        support = [((lab, p), c) for lab, v in cochain.images.items() for p, c in v.items() if c]
        if len(support) == 1:
            ((key, c),) = support
            if key in names:
                return names[key], c
        return None, None

    def table_comparison(self, degrees=(0, 3, 1, 2)):
        """Computed two-corner products versus the published table.

        Right factors run over the degree-0 names; left factors over the
        named bases at the given degrees.  Each row records the computed
        value, the published value, and a match / deviation verdict.
        """
        rows = []
        n = self.hc.n
        right = self.hc.named_basis(0)
        for d in degrees:
            for f in self.hc.named_basis(d):
                for g in right:
                    want = star_table(f.name, g.name, n)
                    got = self.star(f, g)
                    got_name, got_coeff = self.match_named(got)
                    if want is None:
                        match = got.is_zero()
                        want_str = "0"
                    else:
                        match = got_name == want and got_coeff == 1
                        want_str = str(want)
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
                            "status": "match" if match else "deviation",
                        }
                    )
        return rows

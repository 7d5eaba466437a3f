"""Diagonal maps on the resolution: the literal two-corner map, its
homotopy-corrected variant, and exactly solved lifts of the identity.

Three kinds of degree-indexed family live here.  None of them is built
to a degree: the families, the homotopies and the one-sided contractions
each hold a `Degrees` table (the package's one per-degree cache, defined
in `uniform.py`) that fills one whole degree (every label) the first
time any entry of that degree is read.  That is safe because a
degree is built only from lower degrees (of its own table or of the
tables it reads), never from higher ones, so a degree filled late holds
exactly what it would hold filled early.  How far a run solves is set by
what it reads: the squares it verifies, the images it prints and the
products it takes.

* literal: on a generator u, place the degree-0 diagonal generator at
  the origin on the left of u and at the terminus on the right of u.
  At degree 0 the two placements coincide, doubling the coefficient, so
  the family lifts multiplication by 2.  Evaluated on a general element
  it is applied term-by-term (a k-linear rule, not the bimodule-linear
  extension of its generator images: the two extensions genuinely differ
  and only the term-by-term rule makes every square commute).

* formula: the literal family corrected by h∘boundary + d∘h for a
  chosen h (see corrected below).

* solved: a true bimodule chain map lifting the identity, produced
  degree by degree with one-sided contracting homotopies of the
  resolution.  Evaluation is the bimodule-linear extension of the
  stored generator images.  A square is exact when its right-hand side
  is a boundary, as it is for a chain map below it; `verify_square`
  decides it.

* corrected: any family plus h∘boundary + d∘h, evaluated as the base
  family's value plus the correction.  It is the formula family over the
  literal one, and a second lift of the identity over the solved one.

Each step has one body: the two-corner rule is
`DiagonalMaps.delta_prime_apply`, the homotopy correction is
`HomotopyFamily.correction` and the family it corrects is
`DiagonalMaps.corrected_family`, the bimodule-linear extension is
`_extend`, and the lift step is the `lift` of
`DiagonalMaps.solved_family`.  The lift only solves: its solution lies
in the generator's own corner as it comes, and
`DiagonalMaps.verify_square` is the one comparison of a solved square,
so a square the lift got wrong is a failing row of it, not an error.

The three loops that run once per term are single-pass kernels: each
reads `product_rows`, the boundary shapes and the contraction tables
inline and sums its terms in one `accumulate`, with no intermediate
element per term.  `_extend` sums every (resolution term × image term)
product, and `ChainMapFamily.on_boundary` hands it each generator's
boundary summed off the shape; `DiagonalMaps._solve_boundary` sums the
first-factor and the second-factor contraction; and
`OneSidedContraction._solve` sums each generator minus the contraction
of its boundary, read off the shape.
The tests keep the term-by-term forms (`tests/conftest.py`) and check
that each kernel equals its reference, in value and in order.

The solver never forms the total-complex boundary as one big matrix: it
contracts the first tensor factor with the right-linear contraction of
the resolution, then pushes the leftover of bidegree (0, b) through the
left-linear contraction of the second factor.  Both contractions solve
with the resolution's boundary solver of each degree, whose echelon
splits into one-sided corner blocks.

Every value here (family and homotopy images, the vertex table, the
solver's right-hand sides) is a tensor element in the integer index form
of `tensorcx.py`: {(g1, g2, left, mid, right): coefficient}, and every
input (the boundary of a generator, the argument of `evaluate`) is a
resolution element {(g, left, right): coefficient} on the same numbers.
Generator images are kept per degree by label number, so `_extend` and
`delta_prime_apply` read a resolution term's numbers as they are.  A
chain-map family also keeps its value on the boundary of each generator,
which is both the right-hand side of the generator's lift and the left
side of its square.

A contraction table holds, per degree m, one entry per label and within
it one per free path of a generator, and each entry is the generator's
image as a tuple of (label position, left, right, coefficient) terms,
the label position among those of degree m + 1.  The entries are
relative to the degree, so where the resolution repeats itself the
tables may too: degrees 0..7 are solved, and a degree m >= 8 holds the
very table of m - 6 only when `period_rep` certifies m and m + 1 and the
table of m - 1 is that of m - 7 (at m = 8, when the solved tables of 7
and 1 are equal); every other degree is solved.
The homotopy on one basis triple reads the entry at its free path and
multiplies its other path on; `OneSidedContraction.section` is the
augmentation and its degree-0 section on one.  A tensor factor is such a
triple, with the middle path as the right path of the first factor and
the left path of the second, which is how `_solve_boundary` reads both.
"""

from __future__ import annotations

from .linalg import accumulate, axpy
from .quiver import VERTICES, arrow
from .uniform import Degrees, generator_labels, label_at, label_index, label_pair


def _extend(tc, images, elem):
    """Bimodule-linear extension of generator images {label number:
    tensor element} to a resolution element: every (resolution term ×
    image term) product, read off `product_rows`, summed in one pass."""
    rows = tc.rows
    return accumulate(
        (
            ((g1, g2, nl, mid, nr), c * d)
            for (g, left, right), c in elem.items()
            if (img := images.get(g))
            for (g1, g2, l, mid, r), d in img.items()
            if (nl := rows[left][l]) is not None and (nr := rows[r][right]) is not None
        ),
        tc.field.p,
    )


class OneSidedContraction:
    """A contracting homotopy of the augmented resolution, linear on one side.

    side='right': the maps commute with the right action; they are stored
    on the right-generators (left basis path, label) and extended by
    right multiplication.  side='left' is the mirror.  The defining
    identities (boundary∘s + s∘boundary = identity, with the degree-0
    correction through the augmentation section) are solved with the
    resolution's boundary solver of each degree.

    `table[m][k][slot]` is the image of the degree-m generator whose label
    has position k in `generator_labels(m)` and whose free path has
    position `slot` (`into_index` of the left path on the right side,
    `from_index` of the right path on the left side).  An image is a
    tuple of (k2, left, right, coefficient) terms, k2 the position of a
    label of degree m + 1.  The entries are relative to the degree, so
    degree m may hold the very table of degree m - 6 (see `_repeats`).
    """

    def __init__(self, resolution, side):
        if side not in ("right", "left"):
            raise ValueError(f"contraction side must be 'right' or 'left', not {side!r}")
        self.res = resolution
        self.alg = resolution.algebra
        self.side = side
        # by path index: the position of the free path within its label
        self._slot = self.alg.into_index if side == "right" else self.alg.from_index
        self.table = Degrees(self._table_at, upward=True)

    def section(self, left, right):
        """The augmentation, then its degree-0 section, on a degree-0 triple
        with paths `left` and `right`: their product q lifts to the
        diagonal generator at its source (right side) / target (left side)
        with q as the free path, or to {} when it vanishes."""
        q = self.alg.product_rows[left][right]
        if q is None:
            return {}
        res, p = self.res, self.alg.basis[q]
        if self.side == "right":
            return {(res.vertex_label[p.source], res.vertex[p.source], q): 1}
        return {(res.vertex_label[p.target], q, res.vertex[p.target]): 1}

    def _table_at(self, m):
        return self.table[m - 6] if m >= 8 and self._repeats(m) else self._solve(m)

    def _repeats(self, m):
        """Whether solving degree m >= 8 would repeat the table of m - 6.

        Degree m reads the labels of m and m - 1 and the shape of m (the
        generators and the boundary of their defects), the labels of m + 1
        and the boundary solver of m + 1, and the table of m - 1.  Labels
        repeat with period 3 (see `uniform`); `period_rep` compares the
        shapes of m and m + 1 with those of m - 6 and m - 5; the table of
        m - 1 must be the one of m - 7.  At m = 8 that is one comparison of
        the solved tables of degrees 7 and 1 (degree 0 reads the
        augmentation section, so the chain cannot start lower); above, the
        table of m - 1 is that of m - 7 exactly when it was shared.
        """
        res, table = self.res, self.table
        if res.period_rep(m) == m or res.period_rep(m + 1) == m + 1:
            return False
        if m == 8:
            return table[7] == table[1]
        return table[m - 1] is table[m - 7]

    def _solve(self, m):
        # The boundary commutes with both actions, so the echelon of each
        # degree's boundary matrix splits into one-sided corner blocks and
        # a solution never leaves the corner of its right-hand side.
        res, alg, p = self.res, self.alg, self.res.field.p
        rows, slot = alg.product_rows, self._slot
        solver = res.boundary_solver(m + 1)
        right_side = self.side == "right"
        if m:
            shape, below, base = res.shape(m), self.table[m - 1], 8 * m

        def rhs_terms(g, left, right):
            # the generator (g, left, right) minus s of its boundary, read
            # straight off the shape of degree m and the table of m - 1: a
            # boundary term (x, tgt, y, sign) is the triple (tgt, left x,
            # y right), and s sends it to the images stored at its free
            # path times its other path
            yield (g, left, right), 1
            for x, tgt, y, sign in shape[g & 7]:
                if (nl := rows[left][x]) is None or (nr := rows[y][right]) is None:
                    continue
                if right_side:
                    for k2, l2, r2, d in below[tgt & 7][slot[nl]]:
                        if (q := rows[r2][nr]) is not None:
                            yield (base + k2, l2, q), -sign * d
                else:
                    row = rows[nl]
                    for k2, l2, r2, d in below[tgt & 7][slot[nr]]:
                        if (q := row[l2]) is not None:
                            yield (base + k2, q, r2), -sign * d

        solutions = []
        for lab in generator_labels(m):
            o, t = label_pair(lab)
            g = label_index(lab)
            xs = []
            for free in alg.paths_into[o] if right_side else alg.paths_from[t]:
                left, right = (free, res.vertex[t]) if right_side else (res.vertex[o], free)
                if m == 0:
                    # the generator minus its augmentation section
                    rhs = axpy({(g, left, right): 1}, -1, self.section(left, right), p)
                else:
                    rhs = accumulate(rhs_terms(g, left, right), p)
                x = solver.solve({res.position(m, *k): c for k, c in rhs.items()})
                if x is None:
                    raise ValueError(f"contraction solve failed at degree {m}")
                xs.append(x)
            solutions.append(xs)
        # a solution's positions decoded once, with the target label by its
        # position, so the table stays relative to the degree
        src = [(g2 & 7, l2, r2) for g2, l2, r2 in res.triples(m + 1)]
        return [[tuple((*src[i], d) for i, d in x.items()) for x in xs] for xs in solutions]


class ChainMapFamily:
    """Degree-indexed generator images of a map into the total complex,
    plus the rule for evaluating the map on arbitrary elements.

    Given `images`, the map is their bimodule-linear extension.  Given
    `rule(m, elem)` instead, the map is that rule, and its images are its
    own values on the generators.  `on_boundary` holds the map's value on
    the boundary of each generator of degree >= 1, evaluated once."""

    def __init__(self, diagonal, lift_factor, images=None, rule=None):
        self.dm = diagonal
        self.lift_factor = lift_factor
        self.verified = {}  # degree -> bool, filled by verify_square
        self._rule = rule
        res = diagonal.res
        if images is None:
            images = diagonal.per_label(
                lambda lab: rule(lab.degree, res.generator(lab)), upward=False
            )
        self.images = images  # {degree: {label number: tensor element}}
        # the boundary of a generator sums its shape terms as they are:
        # its paths start and end at the generator's own vertices
        self.on_boundary = diagonal.per_label(
            lambda lab: self.evaluate(
                lab.degree - 1,
                accumulate(
                    (
                        ((tgt, x, y), sign)
                        for x, tgt, y, sign in res.shape(lab.degree)[label_index(lab) & 7]
                    ),
                    diagonal.field.p,
                ),
            ),
            upward=False,
        )

    def evaluate(self, m, elem):
        """Value on a degree-m element of the resolution."""
        if self._rule is not None:
            return self._rule(m, elem)
        return _extend(self.dm.tc, self.images[m], elem)


class HomotopyFamily:
    """Generator images of a degree +1 map, extended bimodule-linearly,
    together with the vertex table used below degree 0."""

    def __init__(self, diagonal, images, star):
        self.dm = diagonal
        self.images = images  # {degree: {label number: tensor element of degree+1}}
        self.star = star  # {vertex: tensor element of degree 0}

    def apply(self, m, elem):
        return _extend(self.dm.tc, self.images[m], elem)

    def apply_star(self, lam_elem):
        """The composite through the augmentation: defined on vertex images."""
        out = {}
        for p, c in lam_elem.items():
            if p.is_vertex():
                axpy(out, c, self.star.get(p.source, {}), self.dm.field.p)
        return out

    def correction(self, m, elem):
        """h∘boundary + d∘h on a degree-m element; at degree 0 the first
        term is the vertex table applied through the augmentation."""
        res = self.dm.res
        if m >= 1:
            out = self.apply(m - 1, res.apply_boundary(m, elem))
        else:
            out = self.apply_star(res.augment(elem))
        return axpy(out, 1, self.dm.tc.differential(self.apply(m, elem)), self.dm.field.p)


class DiagonalMaps:
    """Constructions and verifiers for maps from the resolution into the
    total complex, all bound to one algebra member."""

    def __init__(self, resolution, tensor_complex):
        self.res = resolution
        self.tc = tensor_complex
        self.field = resolution.field
        self.s_right = OneSidedContraction(resolution, "right")
        self.s_left = OneSidedContraction(resolution, "left")

    def per_label(self, rule, upward):
        """{degree: {label number: rule(label)}}, one degree filled on first
        read (see `Degrees`)."""
        return Degrees(
            lambda m: {label_index(lab): rule(lab) for lab in generator_labels(m)}, upward
        )

    # -- the literal two-corner diagonal --------------------------------

    def delta_prime_apply(self, elem):
        """Term-by-term application of the two-corner rule to an element.
        On a generator: origin corner on the left, terminus corner on the
        right; at degree 0 both corners coincide and the coefficient
        doubles."""
        basis, vertex, vertex_label = self.tc.algebra.basis, self.res.vertex, self.res.vertex_label
        terms = []
        for (g, l, r), c in elem.items():
            o, t = basis[l].source, basis[r].target
            terms.append(((vertex_label[o], g, vertex[o], l, r), c))
            terms.append(((g, vertex_label[t], l, r, vertex[t]), c))
        return accumulate(terms, self.field.p)

    def literal_family(self):
        return ChainMapFamily(self, 2, rule=lambda m, elem: self.delta_prime_apply(elem))

    # -- homotopies ------------------------------------------------------

    def default_homotopy(self):
        """The successor homotopy: a generator at the vertex pair
        (w, w+k) goes to the degree-0 diagonal at w tensored with the
        next-degree generator at (w, w+k+1), stepping along the a-chain
        (the b-chain for the detour vertex; the shared vertex takes the
        a-step).  Mixed-pair generators at diagonal degrees carry no
        printed value and are sent to zero.  The vertex table carries a
        minus sign on the a-successors and a plus on the b-successor."""
        succ = {"e0": "e1", "e1": "e2", "e2": "e0", "f1": "e2"}
        res, tc = self.res, self.tc

        def on_generator(lab):
            m = lab.degree
            o, t = label_pair(lab)
            if m % 3 == 0 and o != t:
                return {}
            nxt = label_at(m + 1, o, (succ[o], succ[succ[o]], o)[m % 3])
            return tc.tensor(res.generator(label_at(0, o, o)), res.generator(nxt))

        star = {}
        succ_arrow = {"e0": "a0", "e1": "a1", "e2": "a2", "f1": "b1"}
        sign = {"e0": -1, "e1": -1, "e2": -1, "f1": 1}
        for v in VERTICES:
            gen = res.generator(label_at(0, v, v))
            step = tc.algebra.basis_index[arrow(succ_arrow[v])]
            acted = tc.act(res.vertex[v], tc.tensor(gen, gen), step)
            star[v] = axpy({}, sign[v], acted, self.field.p)
        return HomotopyFamily(self, self.per_label(on_generator, upward=False), star)

    def corrected_family(self, base, h):
        """base + h∘boundary + d∘h, with the lift factor of base: the
        formula family when base is the literal one.

        It is evaluated as base's value plus the correction.  When base is
        bimodule-linear (the solved family), h has an empty vertex table
        and h sends each generator into its own corner, that equals the
        bimodule-linear extension of its generator images, and it is a
        second lift homotopic to base, with h itself a witness.
        """
        p = self.field.p
        return ChainMapFamily(
            self,
            base.lift_factor,
            rule=lambda m, elem: axpy(base.evaluate(m, elem), 1, h.correction(m, elem), p),
        )

    # -- exact solving ----------------------------------------------------

    def _solve_boundary(self, rhs):
        """A deterministic X with dX = rhs.

        rhs must be a boundary; for total degree 0 this amounts to rhs
        augmenting to zero.  Contract the first factor, then push the
        degree-(0, b) leftover through the left contraction of the second:
        both parts read the contraction tables inline and are summed in
        one pass, the first part's terms before the second's.
        """
        rows, first, second = self.tc.rows, self.s_right, self.s_left
        into, outof = self.tc.algebra.into_index, self.tc.algebra.from_index

        def terms():
            # (first-factor contraction) tensor identity: the middle path is
            # the right path of the first factor
            for (g1, g2, left, mid, right), c in rhs.items():
                base = 8 * (g1 >> 3) + 8
                for k, l2, r2, d in first.table[g1 >> 3][g1 & 7][into[left]]:
                    if (nm := rows[r2][mid]) is not None:
                        yield (base + k, g2, l2, nm, right), c * d
            # a degree-0 first factor, replaced through augment-then-section,
            # then identity tensor (second-factor contraction): the middle
            # path is the left path of the second factor
            for (g1, g2, left, mid, right), c in rhs.items():
                if g1 < 8:
                    for (h, nl, q), e in first.section(left, mid).items():
                        base, row = 8 * (g2 >> 3) + 8, rows[q]
                        for k, l2, r2, d in second.table[g2 >> 3][g2 & 7][outof[right]]:
                            if (nm := row[l2]) is not None:
                                yield (h, base + k, nl, nm, r2), c * e * d

        return accumulate(terms(), self.field.p)

    def solved_family(self):
        """A lift of the identity solved one square at a time; each square
        is decided by `verify_square`."""
        res, tc = self.res, self.tc

        def lift(lab):
            m = lab.degree
            if m == 0:
                gen = res.generator(lab)
                return tc.tensor(gen, gen)
            # X with dX = the family on the generator's boundary, when that is
            # a boundary (nothing here checks it).  X lies in the generator's
            # own corner, as the right-hand side does: the first contraction
            # keeps each term's right path and the left end of its left path,
            # the section keeps that left end, and the second contraction
            # keeps the left path and the right end of the right path
            return self._solve_boundary(family.on_boundary[m][label_index(lab)])

        family = ChainMapFamily(self, 1, images=self.per_label(lift, upward=True))
        return family

    # -- verification ------------------------------------------------------

    def verify_square(self, family, m):
        """Exact per-generator comparison in the square at degree m.

        m >= 1: family∘boundary versus differential∘family.  m == 0: the
        augmentation square, compared against lift_factor times the
        augmentation.  Both sides are sparse vectors without zeros, so a
        square commutes when they are equal."""
        res, tc = self.res, self.tc
        rows = []
        for lab in generator_labels(m):
            g = label_index(lab)
            image = family.images[m][g]
            if m == 0:
                want = res.augment(res.generator(lab))
                ok = not axpy(tc.augment(image), -family.lift_factor, want, self.field.p)
                check = "augmentation-square"
            else:
                ok = family.on_boundary[m][g] == tc.differential(image)
                check = "square"
            rows.append(
                {
                    "id": f"square-{m}-{lab}",
                    "kind": check,
                    "degree": m,
                    "check": check,
                    "generator": str(lab),
                    "status": "pass" if ok else "fail",
                }
            )
        ok = all(r["status"] == "pass" for r in rows)
        family.verified[m] = ok
        return rows

    def verify_squares(self, family, max_degree):
        rows = []
        for m in range(0, max_degree + 1):
            rows.extend(self.verify_square(family, m))
        return rows

"""The periodic projective bimodule resolution and its verifiers.

Degree m of the resolution is the free bimodule with one generator per
label of `generator_labels(m)`; an element is a dict {(g, left, right):
coefficient} of int triples, with g the number of a label
(`uniform.label_index`: 8 * degree + position, so the degree is g >> 3)
and `left` and `right` the basis indices (`FamilyAlgebra.basis_index`)
of a path ending at the origin of g and of a path starting at its
terminus.  Every product of paths is read from the algebra's
`product_rows`; the tensor complex and the diagonal use the same numbers.

The boundary map out of degree m is given on generators by one of six
printed shapes selected by m mod 6, with special variants at m = 0 (the
augmentation, which is multiplication) and m = 1 (whose target lacks the
two mixed-pair generators).  The long shapes contain telescoping sums
whose k-th term splits the long cycle word into (left, generator, right)
with the generator absorbing 2, 1 or 0 arrows depending on the residue
of the target degree.  All coefficients are +-1.  `Resolution.shape`
restates each degree's printed shape on the same numbers, once,
decoding each distinct path and target label of the degree once.  One
period of boundary ranks and solvers serves every degree m >= 8;
`period_rep` makes that check per n and degree from the shapes.  So
does one period of the rows of `verify_complex`: a row reads only two
shapes, and from degree 8 on, where both repeat those six degrees
below, it takes that row's status.  A boundary matrix is not kept: it
is built for the rank or solver that reads it and dropped, though over
Q its columns that lead with 1 and need no elimination live on as the
echelon's rows.

Exactness is certified on the top complex P ⊗_A A/J, J the arrow
ideal, rather than on the boundary matrices.  The augmented complex
P -> A is bounded below and made of finitely generated projective right
A-modules, so by Nakayama's lemma it is exact in degrees -1..m exactly
when P ⊗_A A/J is there, given that the boundary squares to zero (the
lemma's premise, the rows of `verify_complex`).  P ⊗_A S_v is the
minimal projective resolution of the simple left module S_v (Happel,
LNM 1404, 1989; Green-Snashall-Solberg, Proc. AMS 131, 2003), so its
matrices are small: 55 to 74 square at n = 5, against about 1000 for
the bimodule boundaries.  From the first degree the certificate does
not cover, `verify_exactness` takes the boundary ranks themselves.

`Label` and `Path` objects remain in the printed shapes, in the value of
`augment` (an algebra element) and in the witnesses of the verifiers.
"""

from __future__ import annotations

from functools import cached_property

from .linalg import LinearSolver, Matrix, accumulate, rank
from .quiver import VERTICES, a_cycle, arrow, trivial
from .uniform import Degrees, Label, generator_labels, label_at, label_index, label_pair


def boundary_shape(m, n):
    """Generator images of the boundary out of degree m >= 1.

    Returns {source label: [(left path, target label, right path, sign)]}.
    """
    if m < 1:
        raise ValueError(f"boundary_shape needs degree m >= 1, not {m}")
    e0, e1, f1, e2 = (trivial(v) for v in ("e0", "e1", "f1", "e2"))
    a0, a1, a2, b0, b1 = (arrow(t) for t in ("a0", "a1", "a2", "b0", "b1"))
    long0 = a_cycle(0, 3 * n + 1)
    long1 = a_cycle(1, 3 * n + 1)
    long2 = a_cycle(2, 3 * n + 1)
    t = m - 1
    r = m % 6
    L = lambda fam, sub=None: Label(m, fam, sub)
    T = lambda fam, sub=None: Label(t, fam, sub)
    # the degree-t generator on the a-chain from e_l, which ends at e_{l+t}
    A = [label_at(t, f"e{l}", f"e{(l + t) % 3}") for l in range(3)]

    def chain(i):
        # the telescoping sum of residues 2, 4 and 0: its j-th term splits
        # the long cycle word from e_i after j arrows
        return [
            (a_cycle(i, j), A[(i + j) % 3], a_cycle(i + j + t, 3 * n + 1 - j), 1)
            for j in range(3 * n + 1)
        ]

    if m == 1:
        return {
            L("R", 0): [(e0, T("R"), a0, 1), (a0, T("S"), e1, -1)],
            L("R", 1): [(e0, T("R"), b0, 1), (b0, T("T"), f1, -1)],
            L("S"): [(e1, T("S"), a1, 1), (a1, T("U"), e2, -1)],
            L("T"): [(f1, T("T"), b1, 1), (b1, T("U"), e2, -1)],
            L("U"): [(e2, T("U"), a2, 1), (a2, T("R"), e0, -1)],
        }

    if r == 1:
        return {
            L("R", 0): [(e0, T("R"), a0, 1), (a0, T("S", 0), e1, -1), (b0, T("T", 0), e1, 1)],
            L("R", 1): [(e0, T("R"), b0, 1), (b0, T("T", 1), f1, 1), (long0, T("S", 1), f1, -1)],
            L("S"): [(e1, T("S", 0), a1, 1), (a1, T("U"), e2, -1), (e1, T("S", 1), b1, -1)],
            L("T"): [(f1, T("T", 1), b1, -1), (b1, T("U"), e2, -1), (f1, T("T", 0), long1, 1)],
            L("U"): [(e2, T("U"), a2, 1), (a2, T("R"), e0, -1)],
        }

    if r == 2:
        return {
            L("R"): chain(0) + [(long0, T("S"), e2, 1), (e0, T("R", 1), b1, -1), (b0, T("T"), e2, -1)],
            L("S"): chain(1) + [(long1, T("U"), e0, 1)],
            L("T"): [(f1, T("T"), a2, 1), (b1, T("U"), e0, 1)],
            L("U", 0): chain(2) + [(long2, T("R", 0), e1, 1)],
            L("U", 1): [(e2, T("U"), b0, 1), (a2, T("R", 1), f1, 1)],
        }

    if r == 3:
        return {
            L("R"): [(e0, T("R"), a2, 1), (a0, T("S"), e0, -1), (b0, T("T"), e0, 1)],
            L("S", 0): [(e1, T("S"), a0, 1), (a1, T("U", 0), e1, -1)],
            L("S", 1): [(e1, T("S"), b0, 1), (long1, T("U", 1), f1, -1)],
            L("T", 0): [(f1, T("T"), long0, 1), (b1, T("U", 0), e1, -1)],
            L("T", 1): [(f1, T("T"), b0, 1), (b1, T("U", 1), f1, -1)],
            L("U"): [(e2, T("U", 0), a1, 1), (a2, T("R"), e2, -1), (e2, T("U", 1), b1, -1)],
        }

    if r == 4:
        return {
            L("R", 0): chain(0) + [(long0, T("S", 0), e1, 1), (b0, T("T", 0), e1, -1)],
            L("R", 1): [(e0, T("R"), b0, 1), (b0, T("T", 1), f1, -1), (a0, T("S", 1), f1, 1)],
            L("S"): chain(1) + [(long1, T("U"), e2, 1), (e1, T("S", 1), b1, -1)],
            L("T"): [(f1, T("T", 1), b1, -1), (b1, T("U"), e2, 1), (f1, T("T", 0), a1, 1)],
            L("U"): chain(2) + [(long2, T("R"), e0, 1)],
        }

    if r == 5:
        return {
            L("R"): [(e0, T("R", 0), a1, 1), (a0, T("S"), e2, -1), (e0, T("R", 1), b1, -1), (b0, T("T"), e2, 1)],
            L("S"): [(e1, T("S"), a2, 1), (a1, T("U"), e0, -1)],
            L("T"): [(f1, T("T"), long2, 1), (b1, T("U"), e0, -1)],
            L("U", 0): [(e2, T("U"), a0, 1), (a2, T("R", 0), e1, -1)],
            L("U", 1): [(e2, T("U"), b0, 1), (long2, T("R", 1), f1, -1)],
        }

    # r == 0, m >= 6
    return {
        L("R"): chain(0) + [(long0, T("S"), e0, 1), (b0, T("T"), e0, -1)],
        L("S", 0): chain(1) + [(long1, T("U", 0), e1, 1)],
        L("S", 1): [(e1, T("S"), b0, 1), (a1, T("U", 1), f1, 1)],
        L("T", 0): [(f1, T("T"), a0, 1), (b1, T("U", 0), e1, 1)],
        L("T", 1): [(f1, T("T"), b0, 1), (b1, T("U", 1), f1, 1)],
        L("U"): chain(2) + [(long2, T("R"), e2, 1), (e2, T("U", 1), b1, -1)],
    }


class Resolution:
    """Resolution data bound to one FamilyAlgebra instance."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.n = algebra.n
        self.field = algebra.field
        self._shapes = Degrees(self._shape_at, upward=False)
        self._blocks = Degrees(self._blocks_at, upward=False)
        self._reps = Degrees(self._period_rep_at, upward=True)
        # the solver and rank tables are keyed by `period_rep`; the matrix
        # each is made from is built for it and dropped
        self._solvers = Degrees(
            lambda m: LinearSolver(self.boundary_matrix(m), self.field.p), upward=False
        )
        self._ranks = Degrees(lambda m: rank(self.boundary_matrix(m), self.field.p), upward=False)
        self._top_ranks = Degrees(lambda m: rank(self._top_matrix(m), self.field.p), upward=False)

    # -- structure -----------------------------------------------------

    @cached_property
    def vertex(self):
        """{vertex: index of its trivial path}."""
        return {v: self.algebra.basis_index[trivial(v)] for v in VERTICES}

    @cached_property
    def vertex_label(self):
        """{vertex: number of the degree-0 label at it}."""
        return {v: label_index(label_at(0, v, v)) for v in VERTICES}

    def generator(self, label):
        """The basis triple (label number, origin, terminus) with coefficient 1."""
        o, t = label_pair(label)
        return {(label_index(label), self.vertex[o], self.vertex[t]): 1}

    def generator_boundary(self, m, k):
        """The boundary of the generator at position k of degree m >= 1,
        summed straight off its shape: the shape's paths start and end at
        the generator's own vertices, so its terms are the triples."""
        return accumulate(
            (((tgt, x, y), sign) for x, tgt, y, sign in self.shape(m)[k]), self.field.p
        )

    def shape(self, m):
        """The boundary shape of degree m >= 1 on numbers: for each label,
        in the order of `generator_labels(m)`, its terms (left path index,
        target label number, right path index, sign)."""
        return self._shapes[m]

    def _shape_at(self, m):
        sh = boundary_shape(m, self.n)
        index = self.algebra.basis_index
        # each distinct path and target label decoded once: a path to
        # (index, source, target), a label to (number, origin, terminus)
        paths, labels = {}, {}
        out = []
        for lab in generator_labels(m):
            o, t = label_pair(lab)
            terms = []
            for left, tgt, right, sign in sh[lab]:
                if (x := paths.get(left)) is None:
                    x = paths[left] = (index[left], left.source, left.target)
                if (y := paths.get(right)) is None:
                    y = paths[right] = (index[right], right.source, right.target)
                if (g := labels.get(tgt)) is None:
                    g = labels[tgt] = (label_index(tgt), *label_pair(tgt))
                if (x[1], x[2], y[1], y[2]) != (o, g[1], g[2], t):
                    raise ValueError(f"boundary of {lab}: term {left} {tgt} {right} has wrong ends")
                terms.append((x[0], g[0], y[0], sign))
            out.append(terms)
        return out

    def position(self, m, g, left, right):
        """The position of the triple (g, left, right) in the scalar basis
        of degree m, laid out by `_blocks`."""
        start, width = self._blocks[m][0][g & 7]
        return start + self.algebra.into_index[left] * width + self.algebra.from_index[right]

    def triples_at(self, m, positions):
        """The triples (g, left, right) at the given positions of degree m,
        in order: the inverse of `position`."""
        alg = self.algebra
        blocks = []
        for k, ((start, width), lab) in enumerate(zip(self._blocks[m][0], generator_labels(m))):
            o, t = label_pair(lab)
            blocks.append((start, width, 8 * m + k, alg.paths_into[o], alg.paths_from[t]))
        # from the last block, so the first that starts at or before a
        # position holds it
        blocks.reverse()
        out = []
        for i in positions:
            for start, width, g, lefts, rights in blocks:
                if start <= i:
                    li, ri = divmod(i - start, width)
                    out.append((g, lefts[li], rights[ri]))
                    break
        return out

    def _blocks_at(self, m):
        """([(start, width)] by label position, dim(m)).

        The scalar basis of degree m is its (label number, left, right)
        triples, label by label.  A label's block starts at `start` and
        lists each left path into its origin with every right path out of
        its terminus, left-major: `width` is the number of right paths.
        """
        alg = self.algebra
        blocks, dim = [], 0
        for lab in generator_labels(m):
            o, t = label_pair(lab)
            width = len(alg.paths_from[t])
            blocks.append((dim, width))
            dim += len(alg.paths_into[o]) * width
        return blocks, dim

    def dim(self, m):
        return self._blocks[m][1]

    # -- maps ------------------------------------------------------------

    def apply_boundary(self, m, elem):
        """Boundary of a degree-m element (m >= 1), as a degree-(m-1) element."""
        rows = self.algebra.product_rows
        shape = self.shape(m)
        return accumulate(
            (
                ((tgt, nl, nr), c if sign > 0 else -c)
                for (g, left, right), c in elem.items()
                for x, tgt, y, sign in shape[g & 7]
                if (nl := rows[left][x]) is not None and (nr := rows[y][right]) is not None
            ),
            self.field.p,
        )

    def augment(self, elem):
        """The degree-0 augmentation: multiply left and right paths, into
        an algebra element {Path: coefficient}."""
        mul, basis = self.algebra.mul_path, self.algebra.basis
        return accumulate(
            (
                (q, c)
                for (g, left, right), c in elem.items()
                if (q := mul(basis[left], basis[right])) is not None
            ),
            self.field.p,
        )

    def period_rep(self, m):
        """The degree whose boundary matrix, rank and solver serve degree m:
        r = `period_rep(m - 6)` for m >= 8 when the shape of m is that of r
        (so of m - 6) with label numbers shifted up by 8(m - r), else m
        itself.  `_boundary_matrix(m)` reads only that shape, the algebra and
        labels, which repeat with period 3 in positive degree (see `uniform`)."""
        return self._reps[m]

    def _period_rep_at(self, m):
        if m < 8:
            return m
        r = self._reps[m - 6]
        # a shape read only here is built, checked and dropped, so a deep
        # read keeps one period of shapes; a label number shifts up by 8
        # per degree
        shape = self._shapes[m] if m in self._shapes else self._shape_at(m)
        shift = 8 * (m - r)
        return r if shape == [
            [(x, tgt + shift, y, s) for x, tgt, y, s in terms] for terms in self.shape(r)
        ] else m

    def boundary_matrix(self, m):
        """Matrix of the boundary out of degree m; rows follow the target basis.

        At m = 0 the target is the algebra itself (the augmentation).  It
        is built anew, from the period rep of m, on every call.
        """
        return self._boundary_matrix(self.period_rep(m))

    def boundary_solver(self, m):
        """LinearSolver of `boundary_matrix(m)`, built once per period rep."""
        return self._solvers[self.period_rep(m)]

    def boundary_rank(self, m):
        """Rank of `boundary_matrix(m)`, read off its solver when one is
        built, so no matrix is eliminated twice."""
        r = self.period_rep(m)
        if r in self._solvers:
            return self._solvers[r].echelon.rank
        return self._ranks[r]

    def _boundary_matrix(self, m):
        """The boundary out of degree m, assembled by index arithmetic.

        Column j is `apply_boundary` of the j-th triple of degree m: a shape
        term (x, tgt, y, sign) sends (g, left, right) to row start(tgt)
        + into_index(left * x) * width(tgt) + from_index(y * right).  Each
        entry is added straight into its column, in term order; an entry
        that cancels stays in place until its label's block is done, so
        a row that returns keeps its first position, as in the dict that
        `accumulate` sums for `apply_boundary`.  At m = 0 column j is
        `augment` of the j-th triple: 1 at left * right, if nonzero.
        """
        alg = self.algebra
        prod = alg.product_rows
        into, outof = alg.paths_into, alg.paths_from
        # the empty columns share one dict, as nothing writes into a column
        empty = {}
        columns = []
        if m == 0:
            for lab in generator_labels(0):
                o, t = label_pair(lab)
                rights = outof[t]
                for left in into[o]:
                    row = prod[left]
                    columns.extend(empty if (q := row[r]) is None else {q: 1} for r in rights)
            return Matrix(len(alg.basis), columns)
        p = self.field.p
        left_pos, right_pos = alg.into_index, alg.from_index
        blocks, rows = self._blocks[m - 1]
        # one int object per row index, shared by every column with that row
        idx = list(range(rows))
        for lab, terms in zip(generator_labels(m), self.shape(m)):
            o, t = label_pair(lab)
            lefts, rights = into[o], outof[t]
            width = len(rights)
            cols = [{} for _ in range(len(lefts) * width)]
            cancelled = []
            for x, tgt, y, sign in terms:
                base, tgt_width = blocks[tgt & 7]
                c = sign % p if p else sign
                row_y = prod[y]
                hits = [
                    (ri, right_pos[q])
                    for ri, right in enumerate(rights)
                    if (q := row_y[right]) is not None
                ]
                for li, left in enumerate(lefts):
                    q = prod[left][x]
                    if q is None:
                        continue
                    row0 = base + left_pos[q] * tgt_width
                    c0 = li * width
                    for ri, r in hits:
                        col = cols[c0 + ri]
                        k = idx[row0 + r]
                        acc = col.get(k)
                        if acc is None:
                            col[k] = c
                        else:
                            acc = (acc + c) % p if p else acc + c
                            col[k] = acc
                            if not acc:
                                cancelled.append(col)
            for col in cancelled:
                for k in [k for k, v in col.items() if not v]:
                    del col[k]
            columns.extend(col or empty for col in cols)
        return Matrix(rows, columns)

    # -- the top complex P ⊗_A A/J ---------------------------------------

    def _top_blocks(self, m):
        """([start] by label position, dim) of degree m of P ⊗_A A/J: a
        label's block lists the left paths into its origin, in order."""
        into = self.algebra.paths_into
        starts, dim = [], 0
        for lab in generator_labels(m):
            starts.append(dim)
            dim += len(into[label_pair(lab)[0]])
        return starts, dim

    def top_dim(self, m):
        return self._top_blocks(m)[1]

    def top_rank(self, m):
        """Rank of `_top_matrix(m)`, taken once per period rep."""
        return self._top_ranks[self.period_rep(m)]

    def _top_matrix(self, m):
        """The boundary out of degree m of P ⊗_A A/J, which is P with
        every right path cut to the trivial one.

        Column (g, left) is the image of g with `left` on its left.  A
        shape term (x, tgt, y, sign) with y trivial adds `sign` at row
        (tgt, left * x); a term with y an arrow path lies in P J and
        vanishes.  At m = 0 the target is A/J, one row per vertex, and
        column (g, left) is 1 at the vertex of `left` when it is trivial.
        """
        alg = self.algebra
        prod, into, left_pos = alg.product_rows, alg.paths_into, alg.into_index
        vertex_row = {i: k for k, i in enumerate(self.vertex.values())}
        if m == 0:
            columns = [
                {vertex_row[left]: 1} if left in vertex_row else {}
                for lab in generator_labels(0)
                for left in into[label_pair(lab)[0]]
            ]
            return Matrix(len(vertex_row), columns)
        starts, rows = self._top_blocks(m - 1)
        columns = []
        for lab, terms in zip(generator_labels(m), self.shape(m)):
            kept = [(x, starts[tgt & 7], sign) for x, tgt, y, sign in terms if y in vertex_row]
            columns.extend(
                accumulate(
                    (
                        (start + left_pos[q], sign)
                        for x, start, sign in kept
                        if (q := prod[left][x]) is not None
                    ),
                    self.field.p,
                )
                for left in into[label_pair(lab)[0]]
            )
        return Matrix(rows, columns)

    # -- verifiers --------------------------------------------------------

    def verify_complex(self, max_degree):
        """Check boundary-squared = 0 on all generators, degrees 0..max_degree-1.

        Row m covers the composite from degree m+1 through degree m: each
        generator's boundary (`generator_boundary`), then the boundary
        (at m = 0 the augmentation) of that.  A row reads only the shapes
        of m and m + 1.  For m >= 8, when `period_rep` finds both to be
        those of m - 6 and m - 5 with label numbers shifted, the
        composites are those of row m - 6 shifted, so row m takes that
        row's status and names the label of degree m + 1 at the position
        of its witness.
        """
        failed = []  # by row: the position of its witness, or None
        rows = []
        for m in range(0, max_degree):
            if m >= 8 and self.period_rep(m) != m and self.period_rep(m + 1) != m + 1:
                failed.append(failed[m - 6])
            else:
                failed.append(None)
                for k in range(len(generator_labels(m + 1))):
                    img = self.generator_boundary(m + 1, k)
                    comp = self.augment(img) if m == 0 else self.apply_boundary(m, img)
                    if comp:
                        failed[m] = k
                        break
            witness = None if failed[m] is None else str(generator_labels(m + 1)[failed[m]])
            rows.append(
                {
                    "id": f"complex-{m}",
                    "kind": "boundary-squared",
                    "degree": m,
                    "check": "boundary-squared",
                    "status": "pass" if witness is None else "fail",
                    **({"witness": witness} if witness else {}),
                }
            )
        return rows

    def verify_exactness(self, max_degree, complex_rows=None):
        """Check dim ker = following rank at degrees 0..max_degree-1.

        The augmented complex P -> A is bounded below and made of finitely
        generated projective right A-modules, so by Nakayama's lemma it is
        exact in degrees -1..m exactly when P ⊗_A A/J is, given that it
        is a complex there: the rows 0..m of `verify_complex` (passed in
        as `complex_rows`, or computed) must pass.  Degree m is certified
        while the top rank at degree 0 is 4, the number of vertices, those
        complex rows pass and top_dim(m) - top_rank(m) == top_rank(m + 1).
        A certified row reads its ranks off the dimensions: r_0 = dim A,
        and r_{m+1} = dim(m) - r_m, the true ranks of an exact complex.
        From the first degree that is not certified on, a row takes the
        ranks of the boundary matrices themselves (`boundary_rank`), so a
        failing row keeps its true numbers.
        """
        if complex_rows is None:
            complex_rows = self.verify_complex(max_degree)
        certified = self.top_rank(0) == len(VERTICES)
        r = len(self.algebra.basis)
        rows = []
        for m in range(0, max_degree):
            certified = (
                certified
                and complex_rows[m]["status"] == "pass"
                and self.top_dim(m) - self.top_rank(m) == self.top_rank(m + 1)
            )
            if certified:
                kdim = r_next = self.dim(m) - r
            else:
                kdim = self.dim(m) - self.boundary_rank(m)
                r_next = self.boundary_rank(m + 1)
            r = r_next
            ok = kdim == r_next
            rows.append(
                {
                    "id": f"exactness-{m}",
                    "kind": "exactness",
                    "degree": m,
                    "check": "exactness",
                    "status": "pass" if ok else "fail",
                    "kernel_dim": kdim,
                    "next_rank": r_next,
                }
            )
        return rows

    def minimality_violations(self, m):
        """Generator-image terms with both decorations trivial (none
        expected), as (label, target label) pairs."""
        trivial_paths = set(self.vertex.values())
        return [
            (lab, generator_labels(m - 1)[tgt & 7])
            for lab, terms in zip(generator_labels(m), self.shape(m))
            for x, tgt, y, sign in terms
            if x in trivial_paths and y in trivial_paths
        ]

"""The periodic projective bimodule resolution and its verifiers.

Degree m of the resolution is the free bimodule with one generator per
label of `generator_labels(m)`; an element is a combination of triples
(label g, left path ending at the origin of g, right path starting at
the terminus of g), both paths normal-form basis paths of the algebra.

The boundary map out of degree m is given on generators by one of six
printed shapes selected by m mod 6, with special variants at m = 0 (the
augmentation, which is multiplication) and m = 1 (whose target lacks the
two mixed-pair generators).  The long shapes contain telescoping sums
whose k-th term splits the long cycle word into (left, generator, right)
with the generator absorbing 2, 1 or 0 arrows depending on the residue
of the target degree.  All coefficients are +-1.  One period of boundary
matrices, ranks and solvers serves every degree m >= 8; `period_rep` makes
that check per n and degree from the shapes.
"""

from __future__ import annotations

from .linalg import LinearSolver, Matrix, accumulate, rank
from .quiver import a_cycle, arrow, trivial
from .uniform import Degrees, Label, generator_labels, label_at, label_pair


def boundary_shape(m, n):
    """Generator images of the boundary out of degree m >= 1.

    Returns {source label: [(left path, target label, right path, sign)]}.
    """
    assert m >= 1
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
    A = lambda l: label_at(t, f"e{l % 3}", f"e{(l + t) % 3}")

    def chain(i):
        # the telescoping sum of residues 2, 4 and 0: its j-th term splits
        # the long cycle word from e_i after j arrows
        return [
            (a_cycle(i, j), A(i + j), a_cycle(i + j + t, 3 * n + 1 - j), 1)
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
        self._labels = Degrees(generator_labels, upward=False)
        self._shapes = Degrees(self._shape_at, upward=False)
        self._triples = Degrees(self._triples_at, upward=False)
        self._blocks = Degrees(self._blocks_at, upward=False)
        self._reps = Degrees(self._period_rep_at, upward=False)
        self._matrices = Degrees(self._boundary_matrix, upward=False)
        # the matrix, solver and rank tables are keyed by `period_rep`
        self._solvers = Degrees(
            lambda m: LinearSolver(self.boundary_matrix(m), self.field.p), upward=False
        )
        self._ranks = Degrees(lambda m: rank(self.boundary_matrix(m), self.field.p), upward=False)

    # -- structure -----------------------------------------------------

    def labels(self, m):
        return self._labels[m]

    def generator(self, label):
        """The basis triple (label, origin, terminus) with coefficient 1."""
        o, t = label_pair(label)
        return {(label, trivial(o), trivial(t)): 1}

    def shape(self, m):
        return self._shapes[m]

    def _shape_at(self, m):
        sh = boundary_shape(m, self.n)
        for lab, terms in sh.items():
            o, t = label_pair(lab)
            for left, tgt, right, sign in terms:
                to, tt = label_pair(tgt)
                assert left.source == o and left.target == to, (lab, tgt)
                assert right.source == tt and right.target == t, (lab, tgt)
        return sh

    def triples(self, m):
        """Ordered scalar basis of degree m: (label, left, right) triples."""
        return self._triples[m][0]

    def triple_index(self, m):
        """{triple: position in `triples(m)`}."""
        return self._triples[m][1]

    def _triples_at(self, m):
        alg = self.algebra
        out = []
        for lab in self.labels(m):
            o, t = label_pair(lab)
            out.extend((lab, left, right) for left in alg.paths_into[o] for right in alg.paths_from[t])
        return out, {tr: i for i, tr in enumerate(out)}

    def _blocks_at(self, m):
        """({label: position in `triples(m)` where its block starts}, dim(m)).

        A label's block lists each left path into its origin with every
        right path out of its terminus, left-major.
        """
        alg = self.algebra
        offsets, dim = {}, 0
        for lab in self.labels(m):
            o, t = label_pair(lab)
            offsets[lab] = dim
            dim += len(alg.paths_into[o]) * len(alg.paths_from[t])
        return offsets, dim

    def dim(self, m):
        return self._blocks[m][1]

    # -- maps ------------------------------------------------------------

    def apply_boundary(self, m, elem):
        """Boundary of a degree-m element (m >= 1), as a degree-(m-1) element."""
        mul = self.algebra.mul_path
        shape = self.shape(m)
        return accumulate(
            (
                ((tgt, nl, nr), c if sign > 0 else -c)
                for (lab, left, right), c in elem.items()
                for x, tgt, y, sign in shape[lab]
                if (nl := mul(left, x)) is not None and (nr := mul(y, right)) is not None
            ),
            self.field.p,
        )

    def augment(self, elem):
        """The degree-0 augmentation: multiply left and right paths."""
        mul = self.algebra.mul_path
        return accumulate(
            (
                (p, c)
                for (lab, left, right), c in elem.items()
                if (p := mul(left, right)) is not None
            ),
            self.field.p,
        )

    def act(self, x, elem, y):
        """Bimodule action: multiply by path x on the left, path y on the right."""
        mul = self.algebra.mul_path
        return accumulate(
            (
                ((lab, nl, nr), c)
                for (lab, left, right), c in elem.items()
                if (nl := mul(x, left)) is not None and (nr := mul(right, y)) is not None
            ),
            self.field.p,
        )

    def period_rep(self, m):
        """The degree whose boundary matrix, rank and solver serve degree m:
        r = `period_rep(m - 6)` for m >= 8 when the labels of m and m - 1 and
        the shape of m (all `_boundary_matrix(m)` reads besides the algebra)
        are those of r and r - 1 shifted up by m - r, else m itself.  Since
        m - 6 is certified against r, that is the comparison with m - 6."""
        return self._reps[m]

    def _period_rep_at(self, m):
        if m < 8:
            return m
        # fill m's residue class from below, so that no read recurses
        if m - 6 not in self._reps:
            for k in range(8 + (m - 8) % 6, m - 6, 6):
                self._reps[k]
        r = self._reps[m - 6]
        up = lambda lab: lab._replace(degree=lab.degree + m - r)
        # the labels are read unmemoised here, so a deep read keeps none
        labels = generator_labels
        if any(tuple(map(up, labels(k - m + r))) != labels(k) for k in (m, m - 1)):
            return m
        # a shape read only here is built, checked and dropped, so a deep
        # read keeps one period of shapes
        shape = self._shapes[m] if m in self._shapes else self._shape_at(m)
        return r if shape == {
            up(lab): [(x, up(t), y, s) for x, t, y, s in terms]
            for lab, terms in self.shape(r).items()
        } else m

    def boundary_matrix(self, m):
        """Matrix of the boundary out of degree m; rows follow the target basis.

        At m = 0 the target is the algebra itself (the augmentation).
        """
        return self._matrices[self.period_rep(m)]

    def boundary_solver(self, m):
        """LinearSolver of `boundary_matrix(m)`, built once per period rep."""
        return self._solvers[self.period_rep(m)]

    def boundary_rank(self, m):
        return self._ranks[self.period_rep(m)]

    def _boundary_matrix(self, m):
        """The boundary out of degree m, assembled by index arithmetic.

        Column j is `apply_boundary` of the j-th triple of degree m: a shape
        term (x, tgt, y, sign) sends (label, left, right) to row offset(tgt)
        + pos(left * x) * width(tgt) + pos(y * right).  Each column is summed
        in term order, as `accumulate` sums the element's image.  At m = 0
        column j is `augment` of the j-th triple: 1 at left * right, if
        nonzero.
        """
        alg = self.algebra
        mul = alg.mul_path
        if m == 0:
            entries = [
                (alg.basis_index[p], j, 1)
                for j, (lab, left, right) in enumerate(self.triples(0))
                if (p := mul(left, right)) is not None
            ]
            return Matrix(len(alg.basis), self.dim(0), entries)
        into, outof = alg.paths_into, alg.paths_from
        left_pos, right_pos = alg.into_index, alg.from_index
        offsets, rows = self._blocks[m - 1]
        shape = self.shape(m)
        # one int object per row index, shared by every entry in that row
        idx = list(range(rows))
        entries = []
        col0 = 0
        for lab in self.labels(m):
            o, t = label_pair(lab)
            lefts, rights = into[o], outof[t]
            width = len(rights)
            cols = [[] for _ in range(len(lefts) * width)]
            for x, tgt, y, sign in shape[lab]:
                base = offsets[tgt]
                tgt_width = len(outof[label_pair(tgt)[1]])
                # a one-term column skips `accumulate`, so reduce here
                c = sign % self.field.p if self.field.p else sign
                hits = [
                    (ri, right_pos[p])
                    for ri, right in enumerate(rights)
                    if (p := mul(y, right)) is not None
                ]
                for li, left in enumerate(lefts):
                    p = mul(left, x)
                    if p is None:
                        continue
                    row0 = base + left_pos[p] * tgt_width
                    c0 = li * width
                    for ri, r in hits:
                        cols[c0 + ri].append((row0 + r, c))
            for j, col in enumerate(cols, col0):
                if len(col) > 1:
                    col = accumulate(col, self.field.p).items()
                entries.extend((idx[r], j, c) for r, c in col)
            col0 += len(cols)
        return Matrix(rows, col0, entries)

    # -- verifiers --------------------------------------------------------

    def verify_complex(self, max_degree):
        """Check boundary-squared = 0 on all generators, degrees 0..max_degree-1.

        Row m covers the composite from degree m+1 through degree m.
        """
        rows = []
        for m in range(0, max_degree):
            witness = None
            for lab in self.labels(m + 1):
                img = self.apply_boundary(m + 1, self.generator(lab))
                if m == 0:
                    comp = self.augment(img)
                else:
                    comp = self.apply_boundary(m, img)
                if comp:
                    witness = str(lab)
                    break
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

    def verify_exactness(self, max_degree):
        """Check dim ker = following rank at degrees 0..max_degree-1."""
        rows = []
        for m in range(0, max_degree):
            kdim = self.dim(m) - self.boundary_rank(m)
            r_next = self.boundary_rank(m + 1)
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
        """Generator-image terms with both decorations trivial (none expected)."""
        bad = []
        for lab, terms in self.shape(m).items():
            for left, tgt, right, sign in terms:
                if left.is_vertex() and right.is_vertex():
                    bad.append((lab, tgt))
        return bad

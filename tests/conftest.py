from fractions import Fraction
from types import SimpleNamespace

import pytest

from quiverhh import Pipeline, RunConfig
from quiverhh.linalg import accumulate, axpy
from quiverhh.quiver import Path, a_cycle, arrow, compose, trivial
from quiverhh.uniform import Label, generator_labels, label_index, label_pair


@pytest.fixture(scope="session")
def pipes():
    """Shared pipelines per family index (expensive state: build once)."""
    return {
        0: Pipeline(RunConfig(n=0, max_degree=12)),
        1: Pipeline(RunConfig(n=1, max_degree=9)),
        2: Pipeline(RunConfig(n=2, max_degree=9)),
    }


@pytest.fixture(scope="session")
def solved_families(pipes):
    """Solved diagonal lifts, verified through their build degree."""
    out = {}
    for n, pipe in pipes.items():
        fam = pipe.diagonal.solved_family()
        pipe.diagonal.verify_squares(fam, pipe.config.max_degree)
        out[n] = fam
    return out


def _fmul(elem, p):
    """Right multiplication of a formal path combination by a path, in
    the free path algebra."""
    out = {}
    for q, c in elem.items():
        qp = compose(q, p)
        assert qp is not None, "ill-composed word in the uniform recursion"
        out[qp] = out.get(qp, 0) + c
    return {k: v for k, v in out.items() if v}


def _fsub(x, y):
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0) - c
        if not out[k]:
            del out[k]
    return out


def _uniform_families(n, max_degree):
    """The paper's labelled uniform elements of the member n, in degrees
    0..max_degree: `families[m][label]` is a {Path: coefficient} element
    of the free path algebra (no relation applied: from degree 2 on they
    generate the ideal, so reducing them would give zero).

    Degrees 0..2 are the explicit lists; each higher degree is the
    period-6 step from the one below it, by m mod 6.  The degree-1 step of
    the S and T families would need mixed-pair degree-0 elements that do
    not exist, which is why degree 1 is listed too."""
    a0, a1, a2, b0, b1 = (arrow(t) for t in ("a0", "a1", "a2", "b0", "b1"))
    long0, long1, long2 = (a_cycle(i, 3 * n + 1) for i in range(3))  # (a_i ...)^n a_i
    families = [
        {
            Label(0, "R", None): {trivial("e0"): 1},
            Label(0, "S", None): {trivial("e1"): 1},
            Label(0, "T", None): {trivial("f1"): 1},
            Label(0, "U", None): {trivial("e2"): 1},
        },
        {
            Label(1, "R", 0): {arrow("a0"): 1},
            Label(1, "R", 1): {arrow("b0"): 1},
            Label(1, "S", None): {arrow("a1"): 1},
            Label(1, "T", None): {arrow("b1"): 1},
            Label(1, "U", None): {arrow("a2"): 1},
        },
        {
            Label(2, "R", None): {a_cycle(0, 3 * n + 2): 1, Path("e0", ("b0", "b1")): -1},
            Label(2, "S", None): {a_cycle(1, 3 * n + 2): 1},
            Label(2, "T", None): {Path("f1", ("b1", "a2")): 1},
            Label(2, "U", 0): {a_cycle(2, 3 * n + 2): 1},
            Label(2, "U", 1): {Path("e2", ("a2", "b0")): 1},
        },
    ]
    for m in range(3, max_degree + 1):
        prev = families[m - 1]

        def g(fam, sub=None):
            return prev[Label(m - 1, fam, sub)]

        r = m % 6
        if r == 1:
            step = {
                ("R", 0): _fmul(g("R"), a0),
                ("R", 1): _fmul(g("R"), b0),
                ("S", None): _fsub(_fmul(g("S", 0), a1), _fmul(g("S", 1), b1)),
                ("T", None): _fsub(_fmul(g("T", 0), long1), _fmul(g("T", 1), b1)),
                ("U", None): _fmul(g("U"), a2),
            }
        elif r == 2:
            step = {
                ("R", None): _fsub(_fmul(g("R", 0), long1), _fmul(g("R", 1), b1)),
                ("S", None): _fmul(g("S"), long2),
                ("T", None): _fmul(g("T"), a2),
                ("U", 0): _fmul(g("U"), long0),
                ("U", 1): _fmul(g("U"), b0),
            }
        elif r == 3:
            step = {
                ("R", None): _fmul(g("R"), a2),
                ("S", 0): _fmul(g("S"), a0),
                ("S", 1): _fmul(g("S"), b0),
                ("T", 0): _fmul(g("T"), long0),
                ("T", 1): _fmul(g("T"), b0),
                ("U", None): _fsub(_fmul(g("U", 0), a1), _fmul(g("U", 1), b1)),
            }
        elif r == 4:
            step = {
                ("R", 0): _fmul(g("R"), long0),
                ("R", 1): _fmul(g("R"), b0),
                ("S", None): _fsub(_fmul(g("S", 0), a1), _fmul(g("S", 1), b1)),
                ("T", None): _fsub(_fmul(g("T", 0), a1), _fmul(g("T", 1), b1)),
                ("U", None): _fmul(g("U"), long2),
            }
        elif r == 5:
            step = {
                ("R", None): _fsub(_fmul(g("R", 0), a1), _fmul(g("R", 1), b1)),
                ("S", None): _fmul(g("S"), a2),
                # the printed step has an ill-composed word here; the
                # composable version with the same endpoints is
                # (a2 a0 a1)^n a2
                ("T", None): _fmul(g("T"), long2),
                ("U", 0): _fmul(g("U"), a0),
                ("U", 1): _fmul(g("U"), b0),
            }
        else:
            step = {
                ("R", None): _fmul(g("R"), long2),
                ("S", 0): _fmul(g("S"), long0),
                ("S", 1): _fmul(g("S"), b0),
                ("T", 0): _fmul(g("T"), a0),
                ("T", 1): _fmul(g("T"), b0),
                ("U", None): _fsub(_fmul(g("U", 0), a1), _fmul(g("U", 1), b1)),
            }
        families.append({Label(m, fam, sub): elem for (fam, sub), elem in step.items()})
    return families[: max_degree + 1]


@pytest.fixture(scope="session")
def uniform_families():
    """`uniform_families(n, max_degree)`: the labelled uniform elements of
    the member n by degree, from the paper's explicit lists and recursion.
    The package keeps only their labels; `boundary_shape` is the
    transcription the resolution verifies."""
    return _uniform_families


def _corner_homotopy(dm):
    """A nonzero degree +1 map that does respect generator corners: each
    generator goes to the first scalar basis element of its own corner one
    total degree up (zero when the corner is empty).  Used to produce
    genuinely different lifts of the same map."""
    from quiverhh.diagonal import HomotopyFamily
    from quiverhh.quiver import VERTICES

    alg = dm.res.algebra
    index = alg.basis_index

    def image(lab):
        m = lab.degree
        o, t = label_pair(lab)
        for a in range(m + 2):
            for g1 in generator_labels(a):
                o1, t1 = label_pair(g1)
                if not alg.corners[(o, o1)]:
                    continue
                for g2 in generator_labels(m + 1 - a):
                    o2, t2 = label_pair(g2)
                    if alg.corners[(t1, o2)] and alg.corners[(t2, t)]:
                        pick = (
                            label_index(g1),
                            label_index(g2),
                            index[alg.corners[(o, o1)][0]],
                            index[alg.corners[(t1, o2)][0]],
                            index[alg.corners[(t2, t)][0]],
                        )
                        return {pick: 1}
        return {}

    return HomotopyFamily(dm, dm.per_label(image, upward=False), {v: {} for v in VERTICES})


def _reference_normal_form(n, p):
    """Normal form of the path p in the member n, rewritten on the tuple
    of arrow tags and searched tag by tag: Path or None."""
    kill_words = (a_cycle(1, 3 * n + 2).arrows, a_cycle(2, 3 * n + 2).arrows, ("b1", "a2"), ("a2", "b0"))
    replacement = a_cycle(0, 3 * n + 2).arrows
    word = p.arrows

    def at(sub):
        return [i for i in range(len(word) - len(sub) + 1) if word[i : i + len(sub)] == sub]

    while True:
        if any(at(kw) for kw in kill_words):
            return None
        found = at(("b0", "b1"))
        if not found:
            return Path(p.source, word)
        i = found[0]
        word = word[:i] + replacement + word[i + 2 :]


@pytest.fixture(scope="session")
def reference_normal_form():
    """`reference_normal_form(n, p)`: the rewriting of `FamilyAlgebra`,
    on tuples of arrow tags."""
    return _reference_normal_form


def _decode(owner, elem):
    """An element of a `Resolution` or a `TensorComplex` with its label
    numbers and path indices replaced by `Label` and `Path` objects: keys
    (Label, Path, Path) for a resolution element and (Label, Label, Path,
    Path, Path) for a tensor element."""
    res = getattr(owner, "res", owner)
    basis = res.algebra.basis
    label = lambda g: generator_labels(g >> 3)[g & 7]
    out = {}
    for key, c in elem.items():
        if len(key) == 3:
            g, l, r = key
            out[(label(g), basis[l], basis[r])] = c
        else:
            g1, g2, l, m, r = key
            out[(label(g1), label(g2), basis[l], basis[m], basis[r])] = c
    return out


@pytest.fixture(scope="session")
def decode():
    """`decode(owner, elem)`: a resolution or tensor element of `owner` (a
    `Resolution` or a `TensorComplex`) keyed by `Label` and `Path` objects:
    the inverse of `uniform.label_index` and `FamilyAlgebra.basis_index`
    on each key."""
    return _decode


def _act(res, x, elem, y):
    """Bimodule action on an element of the `Resolution` res: multiply by
    the basis path of index x on the left and by that of index y on the
    right."""
    rows = res.algebra.product_rows
    row_x = rows[x]
    return accumulate(
        (
            ((g, nl, nr), c)
            for (g, left, right), c in elem.items()
            if (nl := row_x[left]) is not None and (nr := rows[right][y]) is not None
        ),
        res.field.p,
    )


@pytest.fixture(scope="session")
def act():
    """`act(res, x, elem, y)`: the bimodule action on a resolution element,
    by the basis paths of indices x (left) and y (right)."""
    return _act


def _triples(res, m):
    """The ordered scalar basis of degree m of a `Resolution`: its (label
    number, left, right) triples, by label, then left and right path."""
    alg = res.algebra
    out = []
    for lab in generator_labels(m):
        o, t = label_pair(lab)
        g, rights = label_index(lab), alg.paths_from[t]
        out.extend((g, left, right) for left in alg.paths_into[o] for right in rights)
    return out


@pytest.fixture(scope="session")
def triples():
    """`triples(res, m)`: the scalar basis of degree m of the resolution
    `res`, listed."""
    return _triples


def _tensor_triples(tc, m):
    """The ordered scalar basis of total degree m of a `TensorComplex`: its
    quintuples (g1, g2, left, mid, right), by degree of the first factor,
    then label, left, middle and right path."""
    alg = tc.algebra
    index = alg.basis_index
    out = []
    for a in range(m + 1):
        for g1 in generator_labels(a):
            o1, t1 = label_pair(g1)
            for g2 in generator_labels(m - a):
                o2, t2 = label_pair(g2)
                mids = alg.corners[(t1, o2)]
                i1, i2 = label_index(g1), label_index(g2)
                for left in alg.paths_into[o1]:
                    for mid in mids:
                        for right in alg.paths_from[t2]:
                            out.append((i1, i2, left, index[mid], right))
    return out


@pytest.fixture(scope="session")
def tensor_triples():
    """`tensor_triples(tc, m)`: the scalar basis of total degree m of the
    tensor complex `tc`."""
    return _tensor_triples


@pytest.fixture(scope="session")
def corner_homotopy():
    """`corner_homotopy(dm)`: the corner homotopy of a `DiagonalMaps`."""
    return _corner_homotopy


def _homotopy_solve(dm, fam_f, fam_g, max_degree):
    """(h, None) with f - g = h∘boundary + d∘h through `max_degree`, or
    (None, m) with m the degree where the two families of the
    `DiagonalMaps` dm stop being homotopic.  h has an empty vertex table,
    and each image is solved by the diagonal's exact solver and projected
    onto its generator's own corner, where a solved lift lies already."""
    from quiverhh.diagonal import HomotopyFamily
    from quiverhh.quiver import VERTICES

    res, tc, p = dm.res, dm.tc, dm.field.p
    vertex = res.vertex
    images = {}
    h = HomotopyFamily(dm, images, {v: {} for v in VERTICES})
    for m in range(0, max_degree + 1):
        imgs = {}
        for lab in generator_labels(m):
            g = label_index(lab)
            e = axpy(dict(fam_f.images[m][g]), -1, fam_g.images[m][g], p)
            if m >= 1:
                axpy(e, -1, h.apply(m - 1, res.apply_boundary(m, res.generator(lab))), p)
            o, t = label_pair(lab)
            x = tc.act(vertex[o], dm._solve_boundary(e), vertex[t])
            if axpy(tc.differential(x), -1, e, p):
                return None, m
            imgs[g] = x
        images[m] = imgs
    return h, None


@pytest.fixture(scope="session")
def homotopy_solve():
    """`homotopy_solve(dm, fam_f, fam_g, max_degree)`: a homotopy between
    two chain-map families of a `DiagonalMaps`, or the degree where none
    exists."""
    return _homotopy_solve


def _homotopy_json(pipe, h):
    """The `--homotopy file:` format of the homotopy family h of a
    `Pipeline`: its generator images in degrees 0..max_degree, as
    `Pipeline.family_json` writes them, and its vertex table."""
    from quiverhh.pipeline import _terms_json
    from quiverhh.quiver import VERTICES

    field = pipe.algebra.field
    star = [
        {"vertex": v, "terms": _terms_json(pipe._names, h.star.get(v, {}), field)}
        for v in VERTICES
    ]
    return {"images": pipe.family_json(h), "star": star}


@pytest.fixture(scope="session")
def homotopy_json():
    """`homotopy_json(pipe, h)`: the serialised homotopy that
    `--homotopy file:PATH` reads."""
    return _homotopy_json


class _ReferenceEchelon:
    """The elimination loop of `linalg.SparseEchelon` before it read its
    vectors in place: each vector is copied first, then reduced one
    `axpy` per row.  The reference of a differential test."""

    def __init__(self, p, track=False):
        self.p = p
        self.rows = {}
        self.combos = {} if track else None

    def _subtract(self, vec, f, lead, combo):
        axpy(vec, -f, self.rows[lead], self.p)
        if combo is not None:
            axpy(combo, f, self.combos[lead], self.p)

    def _eliminate(self, vec, combo=None):
        while vec:
            lead = min(vec)
            if lead not in self.rows:
                break
            self._subtract(vec, vec[lead], lead, combo)
        return vec

    def add(self, vec, tag=None):
        p = self.p
        combo = None if self.combos is None else {}
        res = self._eliminate(dict(vec), combo)
        if not res:
            return None
        lead = min(res)
        inv = res[lead]
        if p:
            inv = pow(inv, -1, p)
            row = {j: c * inv % p for j, c in res.items()}
        elif inv == 1:
            row = res
        elif inv == -1:
            row = {j: -c for j, c in res.items()}
        else:
            inv = Fraction(1, inv) if type(inv) is int else 1 / inv
            row = {j: c * inv for j, c in res.items()}
        self.rows[lead] = row
        if combo is not None:
            row_combo = axpy({}, -inv, combo, p)
            row_combo[tag] = inv
            self.combos[lead] = row_combo
        return lead

    def express(self, vec):
        combo = {}
        if self._eliminate(dict(vec), combo):
            return None
        return dict(sorted(combo.items()))

    @property
    def rank(self):
        return len(self.rows)


def _reference_kernel_basis(a, p):
    ech = _ReferenceEchelon(p, track=True)
    basis = []
    for j, col in enumerate(a.columns):
        if ech.add(col, j) is None:
            v = axpy({}, -1, ech.express(col), p)
            v[j] = 1
            basis.append(v)
    return basis


@pytest.fixture(scope="session")
def reference_echelon():
    """`(echelon class, kernel_basis)` of the reference elimination loop:
    `SparseEchelon` and `kernel_basis` as they were before the echelon
    read its vectors copy-on-write."""
    return _ReferenceEchelon, _reference_kernel_basis


# -- the term-by-term forms of the fused kernels ------------------------------


def _contraction_terms(s, g, left, right):
    """The homotopy of the `OneSidedContraction` s on the basis triple (g,
    left, right): its (triple, coefficient) terms, not summed."""
    m, rows = g >> 3, s.alg.product_rows
    base, images = 8 * (m + 1), s.table[m][g & 7]
    if s.side == "right":
        for k2, l2, r2, d in images[s.alg.into_index[left]]:
            if (nr := rows[r2][right]) is not None:
                yield (base + k2, l2, nr), d
    else:
        for k2, l2, r2, d in images[s.alg.from_index[right]]:
            if (nl := rows[left][l2]) is not None:
                yield (base + k2, nl, r2), d


def _contraction_apply(s, elem):
    """The homotopy of s on an element of one degree, term by term."""
    return accumulate(
        ((k, c * d) for (g, l, r), c in elem.items() for k, d in _contraction_terms(s, g, l, r)),
        s.res.field.p,
    )


def _contraction_table(s, m):
    """The table of degree m of s solved from its defects as
    `apply_boundary`, then `_contraction_apply`, then `axpy` make them."""
    res, alg, p = s.res, s.alg, s.res.field.p
    solver = res.boundary_solver(m + 1)
    right_side = s.side == "right"
    solutions = []
    for lab in generator_labels(m):
        o, t = label_pair(lab)
        g = label_index(lab)
        xs = []
        for free in alg.paths_into[o] if right_side else alg.paths_from[t]:
            gen = (g, free, res.vertex[t]) if right_side else (g, res.vertex[o], free)
            if m == 0:
                defect = s.section(gen[1], gen[2])
            else:
                defect = _contraction_apply(s, res.apply_boundary(m, {gen: 1}))
            rhs = axpy({gen: 1}, -1, defect, p)
            xs.append(solver.solve({res.position(m, *k): c for k, c in rhs.items()}))
        solutions.append(xs)
    src = [(g2 & 7, l2, r2) for g2, l2, r2 in _triples(res, m + 1)]
    return [[tuple((*src[i], d) for i, d in x.items()) for x in xs] for xs in solutions]


def _extend(tc, images, elem):
    """The bimodule-linear extension of generator images, one `act` and one
    `axpy` per resolution term."""
    out = {}
    for (g, left, right), c in elem.items():
        img = images.get(g)
        if img:
            axpy(out, c, tc.act(left, img, right), tc.field.p)
    return out


def _solve_boundary(dm, rhs):
    """`DiagonalMaps._solve_boundary` of the `DiagonalMaps` dm in three sums
    and an `axpy`: the first-factor contraction, the degree-0 leftover
    through the section, and that leftover through the second factor's
    contraction, each by `_contraction_terms`."""
    p, first, second = dm.field.p, dm.s_right, dm.s_left
    x = accumulate(
        (
            ((h, g2, nl, nm, right), c * d)
            for (g1, g2, left, mid, right), c in rhs.items()
            for (h, nl, nm), d in _contraction_terms(first, g1, left, mid)
        ),
        p,
    )
    leftover = accumulate(
        (
            ((h, g2, nl, q, right), c * d)
            for (g1, g2, left, mid, right), c in rhs.items()
            if g1 < 8
            for (h, nl, q), d in first.section(left, mid).items()
        ),
        p,
    )
    y = accumulate(
        (
            ((g1, h, left, nm, nr), c * d)
            for (g1, g2, left, mid, right), c in leftover.items()
            for (h, nm, nr), d in _contraction_terms(second, g2, mid, right)
        ),
        p,
    )
    return axpy(x, 1, y, p)


def _terms_json(names, elem, field):
    """`pipeline._terms_json` sorted by one string per term: the repr of
    its key decoded to `Label` and `Path` objects."""
    labels, paths = names
    keyed = []
    for (g1, g2, left, mid, right), c in elem.items():
        n1, n2, nl, nm, nr = labels[g1], labels[g2], paths[left], paths[mid], paths[right]
        row = {
            "bidegree": [g1 >> 3, g2 >> 3],
            "g1": n1[0],
            "g2": n2[0],
            "left": nl[0],
            "middle": nm[0],
            "right": nr[0],
            "coeff": field.format(c),
        }
        keyed.append((f"({n1[1]}, {n2[1]}, {nl[1]}, {nm[1]}, {nr[1]})", row))
    keyed.sort(key=lambda kv: kv[0])
    return [row for _, row in keyed]


@pytest.fixture(scope="session")
def term_by_term():
    """The term-by-term references of the fused kernels: the contraction's
    `terms`, `apply` and `table(s, m)`, the extension `extend`, the
    exact solver `solve_boundary(dm, rhs)` and the term sort `terms_json`."""
    return SimpleNamespace(
        terms=_contraction_terms,
        apply=_contraction_apply,
        table=_contraction_table,
        extend=_extend,
        solve_boundary=_solve_boundary,
        terms_json=_terms_json,
    )

from fractions import Fraction

import pytest

from quiverhh import Pipeline, RunConfig
from quiverhh.linalg import accumulate, axpy


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


def _corner_homotopy(dm):
    """A nonzero degree +1 map that does respect generator corners: each
    generator goes to the first scalar basis element of its own corner one
    total degree up (zero when the corner is empty).  Used to produce
    genuinely different lifts of the same map."""
    from quiverhh.diagonal import HomotopyFamily
    from quiverhh.quiver import VERTICES
    from quiverhh.uniform import label_index, label_pair

    alg = dm.res.algebra
    labels, index = dm.res.labels, alg.basis_index

    def image(lab):
        m = lab.degree
        o, t = label_pair(lab)
        for a in range(m + 2):
            for g1 in labels(a):
                o1, t1 = label_pair(g1)
                if not alg.corners[(o, o1)]:
                    continue
                for g2 in labels(m + 1 - a):
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


def _decode(owner, elem):
    """An element of a `Resolution` or a `TensorComplex` with its label
    numbers and path indices replaced by `Label` and `Path` objects: keys
    (Label, Path, Path) for a resolution element and (Label, Label, Path,
    Path, Path) for a tensor element."""
    res = getattr(owner, "res", owner)
    basis = res.algebra.basis
    label = lambda g: res.labels(g >> 3)[g & 7]
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


def _tensor_triples(tc, m):
    """The ordered scalar basis of total degree m of a `TensorComplex`: its
    quintuples (g1, g2, left, mid, right), by degree of the first factor,
    then label, left, middle and right path."""
    from quiverhh.uniform import label_index, label_pair

    alg, labels = tc.algebra, tc.res.labels
    index = alg.basis_index
    out = []
    for a in range(m + 1):
        for g1 in labels(a):
            o1, t1 = label_pair(g1)
            for g2 in labels(m - a):
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
    and each image is solved by the diagonal's exact solver and kept in
    its generator's own corner, as the solved family's lift keeps it."""
    from quiverhh.diagonal import HomotopyFamily
    from quiverhh.quiver import VERTICES
    from quiverhh.uniform import label_index, label_pair

    res, tc, p = dm.res, dm.tc, dm.field.p
    vertex = res.vertex
    images = {}
    h = HomotopyFamily(dm, images, {v: {} for v in VERTICES})
    for m in range(0, max_degree + 1):
        imgs = {}
        for lab in res.labels(m):
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

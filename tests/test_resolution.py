import gc
import hashlib
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhh.algebra import get_algebra
from quiverhh.linalg import QQ, PrimeField, accumulate, axpy, rank
from quiverhh import quiver
from quiverhh.quiver import arrow, parse_path, trivial
from quiverhh.cochains import HochschildComplex
from quiverhh.diagonal import OneSidedContraction
from quiverhh.resolution import Resolution, boundary_shape
from quiverhh.uniform import Label, generator_labels, label_pair


def res(pipes, n):
    return pipes[n].resolution


def term_set(elem):
    return {(str(lab), str(l), str(r)): c for (lab, l, r), c in elem.items()}


def test_generator_set_orders():
    assert [label_pair(l) for l in generator_labels(0)] == [
        ("e0", "e0"),
        ("e1", "e1"),
        ("f1", "f1"),
        ("e2", "e2"),
    ]
    assert [label_pair(l) for l in generator_labels(4)] == [
        ("e0", "e1"),
        ("e0", "f1"),
        ("e1", "e2"),
        ("f1", "e2"),
        ("e2", "e0"),
    ]
    assert [label_pair(l) for l in generator_labels(3)] == [
        ("e0", "e0"),
        ("e1", "e1"),
        ("e1", "f1"),
        ("f1", "e1"),
        ("f1", "f1"),
        ("e2", "e2"),
    ]


def test_augmentation_is_multiplication(pipes, act):
    r = res(pipes, 0)
    for lab in generator_labels(0):
        o, _ = label_pair(lab)
        assert r.augment(r.generator(lab)) == {trivial(o): Fraction(1)}
    # and on decorated elements it multiplies through
    index = r.algebra.basis_index
    elem = act(r, index[arrow("a0")], r.generator(Label(0, "S", None)), index[arrow("a1")])
    assert r.augment(elem) == {parse_path("a0*a1"): Fraction(1)}


def test_degree_one_boundary_any_n(pipes, decode):
    for n in (0, 1, 2):
        r = res(pipes, n)
        img = r.apply_boundary(1, r.generator(Label(1, "R", 0)))
        assert term_set(decode(r, img)) == {
            ("R0", "e0", "a0"): Fraction(1),
            ("S0", "a0", "e1"): Fraction(-1),
        }


def test_degree_three_mixed_boundary_n0(pipes, decode):
    r = res(pipes, 0)
    img = r.apply_boundary(3, r.generator(Label(3, "S", 1)))
    assert term_set(decode(r, img)) == {
        ("S2", "e1", "b0"): Fraction(1),
        ("U2_1", "a1", "f1"): Fraction(-1),
    }


def test_degree_three_mixed_boundary_n1(pipes, decode):
    # the long coefficient appears once n is positive
    r = res(pipes, 1)
    img = r.apply_boundary(3, r.generator(Label(3, "S", 1)))
    assert term_set(decode(r, img)) == {
        ("S2", "e1", "b0"): Fraction(1),
        ("U2_1", "a1*a2*a0*a1", "f1"): Fraction(-1),
    }


def test_degree_two_detour_boundary(pipes, decode):
    # the (f1, e0) generator maps through the closing arrow of the cycle
    for n in (0, 1):
        r = res(pipes, n)
        img = r.apply_boundary(2, r.generator(Label(2, "T", None)))
        assert term_set(decode(r, img)) == {
            ("T1", "f1", "a2"): Fraction(1),
            ("U1", "b1", "e0"): Fraction(1),
        }


def test_boundary_respects_endpoints(pipes):
    for n in (0, 1, 2):
        r = res(pipes, n)
        basis = r.algebra.basis
        for m in range(1, 10):
            assert len(r.shape(m)) == len(generator_labels(m))
            for lab, terms in zip(generator_labels(m), r.shape(m)):
                o, t = label_pair(lab)
                for x, g, y, sign in terms:
                    left, tgt, right = basis[x], generator_labels(m - 1)[g & 7], basis[y]
                    assert g >> 3 == m - 1
                    to, tt = label_pair(tgt)
                    assert left.source == o and left.target == to
                    assert right.source == tt and right.target == t
                    assert sign in (1, -1)


def test_bimodule_linearity_random(pipes, act):
    r = res(pipes, 1)
    alg = r.algebra
    rng = random.Random(4242)
    for _ in range(40):
        m = rng.randrange(1, 8)
        lab = rng.choice(generator_labels(m))
        o, t = label_pair(lab)
        x = rng.choice(alg.paths_into[o])
        y = rng.choice(alg.paths_from[t])
        gen = r.generator(lab)
        lhs = r.apply_boundary(m, act(r, x, gen, y))
        rhs = act(r, x, r.apply_boundary(m, gen), y)
        assert lhs == rhs


def test_resolution_elements_are_int_triples(pipes, act):
    # generators, boundaries, actions and bases share the tensor complex's
    # numbers: (label number, left path index, right path index)
    def int_triples(keys):
        keys = list(keys)
        return keys and all(
            type(k) is tuple and len(k) == 3 and all(type(x) is int for x in k) for k in keys
        )

    r = res(pipes, 1)
    alg = r.algebra
    for m in range(0, 8):
        assert int_triples(r.triples(m)), m
        for lab in generator_labels(m):
            o, t = label_pair(lab)
            gen = r.generator(lab)
            assert int_triples(gen), lab
            acted = act(r, alg.paths_into[o][-1], gen, alg.paths_from[t][-1])
            assert int_triples(acted), lab
            if m:
                assert int_triples(r.apply_boundary(m, gen)), lab


_RESOLUTIONS = {}


def _resolution(n, field):
    key = (n, field.p)
    if key not in _RESOLUTIONS:
        _RESOLUTIONS[key] = Resolution(get_algebra(n, field))
    return _RESOLUTIONS[key]


def _reference_boundary(r, m, elem):
    """The boundary of a (Label, Path, Path)-keyed element, read off the
    printed shapes with products of `Path` objects."""
    shape, mul = boundary_shape(m, r.n), r.algebra.mul_path
    return accumulate(
        (
            ((tgt, nl, nr), c * sign)
            for (lab, left, right), c in elem.items()
            for x, tgt, y, sign in shape[lab]
            if (nl := mul(left, x)) is not None and (nr := mul(y, right)) is not None
        ),
        r.field.p,
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_index_form_matches_the_printed_shapes(decode, act, data):
    n = data.draw(st.integers(0, 3), label="n")
    field = data.draw(st.sampled_from([QQ, PrimeField(7)]), label="field")
    m = data.draw(st.integers(0, 13), label="degree")
    r = _resolution(n, field)
    alg, p = r.algebra, field.p
    tris = r.triples(m)
    picks = st.tuples(st.integers(0, len(tris) - 1), st.integers(-3, 3))
    elem = accumulate(((tris[i], c) for i, c in data.draw(st.lists(picks, max_size=6))), p)
    x, y = (data.draw(st.integers(0, len(alg.basis) - 1)) for _ in range(2))
    plain = decode(r, elem)
    mul, X, Y = alg.mul_path, alg.basis[x], alg.basis[y]
    acted = accumulate(
        (
            ((lab, nl, nr), c)
            for (lab, left, right), c in plain.items()
            if (nl := mul(X, left)) is not None and (nr := mul(right, Y)) is not None
        ),
        p,
    )
    assert decode(r, act(r, x, elem, y)) == acted
    if m == 0:
        products = ((mul(left, right), c) for (lab, left, right), c in plain.items())
        want = accumulate(((q, c) for q, c in products if q is not None), p)
        assert r.augment(elem) == want
    else:
        assert decode(r, r.apply_boundary(m, elem)) == _reference_boundary(r, m, plain)


def test_to_matrix_identity_and_zero(pipes):
    r = res(pipes, 0)
    one = Fraction(1)
    # a column per basis triple; the identity map and the zero map are
    # sanity anchors for the basis ordering
    tris = r.triples(1)
    mat = r.boundary_matrix(1)
    assert mat.cols == len(tris)
    assert mat.rows == r.dim(0)
    assert all(c and 0 <= i < mat.rows and 0 <= j < mat.cols for i, j, c in mat.entries)
    assert sum(1 for i, j, c in mat.entries if j == 0) == 2  # two-term image


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_position_inverts_the_listing(n, field):
    # `triples` lists a degree's basis and `position` computes a place in
    # it, both from the one layout of `_blocks`
    r = _resolution(n, field)
    for m in range(0, 14):
        assert [r.position(m, *tr) for tr in r.triples(m)] == list(range(r.dim(m))), m


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_boundary_matrix_columns_are_apply_boundary(n, field):
    r = Resolution(get_algebra(n, field))
    for m in range(0, 14):
        mat = r.boundary_matrix(m)
        # degree 0 maps to the algebra by the augmentation
        if m == 0:
            rows, row = len(r.algebra.basis), r.algebra.basis_index.__getitem__
        else:
            rows, row = r.dim(m - 1), lambda key: r.position(m - 1, *key)
        assert (mat.rows, mat.cols) == (rows, r.dim(m))
        cols = mat.columns
        for j, tr in enumerate(r.triples(m)):
            img = r.augment({tr: 1}) if m == 0 else r.apply_boundary(m, {tr: 1})
            # in the same order: each column sums the shape terms in turn
            want = [(row(key), c) for key, c in img.items()]
            assert list(cols[j].items()) == want, (m, tr)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("n", [0, 1])
def test_boundary_matrix_sums_repeated_terms_as_apply_boundary(n, field):
    # no printed shape repeats a row within a column, so repeat terms: the
    # first term cancels and returns (it keeps its place), the last
    # cancels for good, and the second is summed seven times (zero mod 7)
    r = Resolution(get_algebra(n, field))
    for m in range(1, 8):
        r._shapes[m] = [
            terms
            + [(*terms[0][:3], -terms[0][3]), terms[0], (*terms[-1][:3], -terms[-1][3])]
            + [terms[1]] * 6
            for terms in r.shape(m)
        ]
        cols = r._boundary_matrix(m).columns
        for j, tr in enumerate(r.triples(m)):
            img = r.apply_boundary(m, {tr: 1})
            want = [(r.position(m - 1, *key), c) for key, c in img.items()]
            assert list(cols[j].items()) == want, (m, tr)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_period_shared_boundary_data_match_direct_computation(n, field):
    r = Resolution(get_algebra(n, field))
    p = field.p
    for m in range(8, 14):
        direct = r._boundary_matrix(m)
        assert r.boundary_solver(m) is r.boundary_solver(m - 6)
        assert r.boundary_matrix(m).entries == r.boundary_matrix(m - 6).entries == direct.entries
        assert r.boundary_rank(m) == rank(direct, p)
        cols = direct.columns
        for b in cols[:: max(1, len(cols) // 7)]:
            x = r.boundary_solver(m).solve(b)
            assert x is not None
            image = {}
            for j, v in x.items():
                axpy(image, v, cols[j], p)
            assert image == b, m


@pytest.mark.parametrize("n", [0, 1, 2])
def test_period_certificate_is_checked_not_assumed(pipes, n):
    r = Resolution(res(pipes, n).algebra)
    r._shapes[8] = [[] for _ in r.shape(8)]
    assert r.period_rep(8) == 8
    assert r.boundary_solver(8) is not r.boundary_solver(2)
    rows = r.verify_exactness(9)
    assert [row["degree"] for row in rows if row["status"] == "fail"] == [7, 8]
    # the cochain tables that read shape(8) are built for their own degree
    hc = HochschildComplex(r)
    assert hc._map(7)[0] is not hc._map(1)[0]
    assert hc._map(7)[1] is not hc._map(1)[1]
    assert hc._map(7)[2] is not hc._map(1)[2]
    assert all(not col for col in hc._map(7)[0])
    # the coboundary out of degree 8 reads shape(9), which still matches
    assert hc._map(8)[0] is hc._map(2)[0]
    # a contraction table of degree m reads the shape of m and the solver of
    # m + 1, so the certificate refuses to share the tables of degrees 8
    # (shape 8), 13 (solver 14, whose shape no longer matches that of 8)
    # and 14 (shape 14); with a zero boundary out of degree 8 no table from
    # degree 7 on can be solved, so this resolution has none to compare
    for side in ("right", "left"):
        s = OneSidedContraction(r, side)
        assert not any(s._repeats(m) for m in (8, 13, 14))
    # with shape(8) negated the resolution stays exact, and the table of
    # degree 7 changes sign; every table that reads degree 8, or a table
    # that does, is then solved and not shared
    flipped = Resolution(res(pipes, n).algebra)
    flipped._shapes[8] = [
        [(x, tgt, y, -sign) for x, tgt, y, sign in terms] for terms in flipped.shape(8)
    ]
    assert all(row["status"] == "pass" for row in flipped.verify_exactness(14))
    for side in ("right", "left"):
        s = OneSidedContraction(flipped, side)
        plain = OneSidedContraction(res(pipes, n), side)
        negated = [
            [tuple((k, left, right, -d) for k, left, right, d in img) for img in images]
            for images in plain.table[7]
        ]
        assert s.table[7] == negated
        for m in range(8, 14):
            assert s.table[m] is not s.table[m - 6], (side, m)
            assert s.table[m] == s._solve(m), (side, m)


def test_no_boundary_matrix_outlives_its_rank_or_solver(monkeypatch):
    # a matrix is built for the rank or solver that reads it, then dropped
    built, refs = Resolution._boundary_matrix, []

    def tracked(self, m):
        mat = built(self, m)
        refs.append(weakref.ref(mat))
        return mat

    monkeypatch.setattr(Resolution, "_boundary_matrix", tracked)
    r = Resolution(get_algebra(2))
    for m in range(13):
        r.boundary_rank(m)
        r.boundary_solver(m)
    gc.collect()
    assert refs and all(ref() is None for ref in refs)


def test_deep_reads_do_not_recurse():
    r = Resolution(get_algebra(0))
    assert r.boundary_rank(7000) == r.boundary_rank(4)
    assert r.period_rep(7000) == 4
    assert r.boundary_solver(7000) is r.boundary_solver(4)
    assert r.boundary_matrix(7000).entries == r.boundary_matrix(4).entries


@pytest.mark.parametrize("n", [0, 1])
def test_deep_read_builds_each_cycle_word_once(n):
    # the cycle words are memoised by start mod 3 and length, and the
    # shapes read no word longer than 3n + 2
    get_algebra(n)
    quiver._cycles.clear()
    r = Resolution(get_algebra(n))
    assert r.boundary_solver(7000) is r.boundary_solver(4)
    assert 0 < len(quiver._cycles) <= 3 * (3 * n + 3)


def test_deep_read_keeps_one_period_of_shapes():
    # the certificate builds the shape of each degree it reads past the
    # period and drops it
    r = Resolution(get_algebra(0))
    r.boundary_rank(7000)
    assert len(r._shapes) <= 6


# sha256 of repr([boundary_shape(m, n) for m in 1..19]) per n: the printed
# shapes, term order included
SHAPE_DIGESTS = {
    0: "e67d802e1bbaebefd5bd7f90130731d1fa62046d3eda1f5ac821cc8e6d6d9790",
    1: "9ee383cda9aac9bced212e062e3fa6cd16b1549d314483b1f5753dcfdb5dd6ef",
    2: "9751353f3bbb49fc7e590465af0a937afcb5f253f0747767daa6c1198658a211",
    3: "e62294bf1e7cfebb1e8d34d466eeb3fca823ab80d5bf8170f9f6177abb1ac05f",
    4: "3f47e3a4b0577f8577437a0094ecabd1e4c5c14851c8a15f7a3dd7efd3dde2d9",
    5: "92d3c336d210a23f7e579871f2bec8e1e6260bd2946e68f5daf4b0208c3a89c8",
}


@pytest.mark.parametrize("n", sorted(SHAPE_DIGESTS))
def test_boundary_shapes_match_pinned_digest(n):
    text = repr([boundary_shape(m, n) for m in range(1, 20)])
    assert hashlib.sha256(text.encode()).hexdigest() == SHAPE_DIGESTS[n]


def test_dim_formula(pipes):
    for n in (0, 1, 2):
        r = res(pipes, n)
        alg = r.algebra
        for m in (0, 1, 2, 3, 7):
            want = sum(
                len(alg.paths_into[label_pair(lab)[0]]) * len(alg.paths_from[label_pair(lab)[1]])
                for lab in generator_labels(m)
            )
            assert r.dim(m) == want


@pytest.mark.parametrize("n", [0, 1, 2])
def test_complex_property(pipes, n):
    rows = res(pipes, n).verify_complex(12)
    assert [r["status"] for r in rows] == ["pass"] * 12


def test_corrupted_boundary_fails_complex_check(pipes):
    r = Resolution(res(pipes, 0).algebra)
    r.shape(2)  # build, then flip one sign of R2, the first label
    assert generator_labels(2)[0] == Label(2, "R", None)
    left, tgt, right, sign = r._shapes[2][0][0]
    r._shapes[2][0][0] = (left, tgt, right, -sign)
    rows = r.verify_complex(3)
    assert rows[1]["status"] == "fail" and rows[1]["witness"]


@pytest.mark.parametrize("n", [0, 1, 2])
def test_exactness(pipes, n):
    rows = res(pipes, n).verify_exactness(10)
    assert all(r["status"] == "pass" for r in rows)


def test_zeroed_boundary_breaks_exactness(pipes):
    r = Resolution(res(pipes, 0).algebra)
    r._shapes[2] = [[] for _ in r.shape(2)]
    rows = r.verify_exactness(3)
    assert rows[1]["status"] == "fail"


def _certified_and_direct(r, direct, max_degree):
    """The (status, kernel_dim, next_rank) rows of `r.verify_exactness`,
    and those of the ranks of the boundary matrices of `direct`."""
    rows = [
        (row["status"], row["kernel_dim"], row["next_rank"])
        for row in r.verify_exactness(max_degree)
    ]
    want = []
    for m in range(max_degree):
        kdim, r_next = direct.dim(m) - direct.boundary_rank(m), direct.boundary_rank(m + 1)
        want.append(("pass" if kdim == r_next else "fail", kdim, r_next))
    return rows, want


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(5), PrimeField(7), PrimeField(11)], ids=["QQ", "GF5", "GF7", "GF11"]
)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_certified_exactness_equals_the_direct_ranks(n, field):
    # the fields hold members with p | 3n + 2 (n = 1 in GF5, n = 4 in GF7,
    # n = 3 in GF11); every row is certified, so no boundary matrix is
    # eliminated for them
    r = Resolution(get_algebra(n, field))
    rows, want = _certified_and_direct(r, Resolution(r.algebra), 15)
    assert not r._ranks and not r._solvers
    assert rows == want
    assert all(status == "pass" for status, _, _ in rows)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_zeroed_shape_fails_the_certificate_as_the_direct_ranks(n):
    r, direct = Resolution(get_algebra(n)), Resolution(get_algebra(n))
    for x in (r, direct):
        x._shapes[2] = [[] for _ in x.shape(2)]
    rows, want = _certified_and_direct(r, direct, 6)
    assert rows == want
    assert [m for m, (status, _, _) in enumerate(rows) if status == "fail"] == [1, 2]
    # from the first degree it cannot certify on, every row reads the
    # boundary ranks, though the top complex is exact again from degree 3
    assert sorted(r._ranks) == list(range(1, 7))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_certificate_keeps_the_complex_premise(n):
    # without the last term of the first label's image in degree 3, the
    # boundary squares to zero neither into nor out of degree 3, while the
    # top complex stays exact: a certificate that read the top complex
    # alone would pass every row
    r, direct = Resolution(get_algebra(n)), Resolution(get_algebra(n))
    for x in (r, direct):
        x._shapes[3] = [list(terms) for terms in x.shape(3)]
        x._shapes[3][0].pop()
    assert all(r.top_dim(m) - r.top_rank(m) == r.top_rank(m + 1) for m in range(6))
    complex_rows = r.verify_complex(6)
    assert [row["degree"] for row in complex_rows if row["status"] == "fail"] == [2, 3]
    rows, want = _certified_and_direct(r, direct, 6)
    assert rows == want
    assert [m for m, (status, _, _) in enumerate(rows) if status == "fail"] == [2, 3]


def test_exactness_action_builds_no_boundary_matrix(capsys, monkeypatch):
    # every row of this run is certified on the top complex
    from quiverhh.cli import main

    built = []
    build = Resolution._boundary_matrix

    def counting(self, m):
        built.append(m)
        return build(self, m)

    monkeypatch.setattr(Resolution, "_boundary_matrix", counting)
    assert main(["resolution", "--n", "5", "--max-degree", "12", "exactness"]) == 0
    assert "fail" not in capsys.readouterr().out
    assert built == []


def test_minimality(pipes):
    for n in (0, 1, 2):
        r = res(pipes, n)
        for m in range(1, 13):
            assert r.minimality_violations(m) == []


def test_generator_count_vs_uniform_paths(uniform_families):
    for n in (0, 1, 2):
        families = uniform_families(n, 12)
        for m in range(0, 13):
            assert set(families[m]) == set(generator_labels(m))


def test_boundary_shapes_are_six_periodic(pipes):
    from quiverhh.resolution import boundary_shape
    from quiverhh.uniform import Label

    for n in range(6):
        for m in range(2, 9):
            lo = boundary_shape(m, n)
            hi = boundary_shape(m + 6, n)
            shifted = {
                Label(lab.degree + 6, lab.family, lab.sub): [
                    (l, Label(t.degree + 6, t.family, t.sub), r, s)
                    for (l, t, r, s) in terms
                ]
                for lab, terms in lo.items()
            }
            assert shifted == hi

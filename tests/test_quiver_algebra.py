import random
from fractions import Fraction

import pytest

from quiverhh.algebra import (
    FamilyAlgebra,
    all_paths_up_to,
    get_algebra,
    ideal_relations,
    oracle_quotient_dim,
    truncated_ideal_echelon,
)
from quiverhh.linalg import QQ, PrimeField, accumulate
from quiverhh.quiver import (
    ARROW_SOURCE,
    ARROWS,
    ARROW_TARGET,
    VERTICES,
    Path,
    a_cycle,
    arrow,
    compose,
    parse_path,
    trivial,
)


def test_quiver_shape():
    assert ARROW_SOURCE["a0"] == "e0" and ARROW_TARGET["a0"] == "e1"
    assert ARROW_TARGET["b1"] == "e2"
    assert ARROW_SOURCE["b0"] == "e0" and ARROW_TARGET["b0"] == "f1"
    # the alias arrow shares the 3-cycle's closing edge
    assert parse_path("b2") == arrow("a2")
    assert parse_path("f0") == trivial("e0")


def test_every_basis_path_is_truthy():
    # a path is a two-field NamedTuple, truthy like any other, so a
    # trivial path is no falsy "empty" value
    assert trivial("e0")
    for n in (0, 1):
        assert all(get_algebra(n, QQ).basis)


def test_cycle_words_are_shared_per_start_mod_3():
    for i in range(3):
        for length in range(8):
            p = a_cycle(i, length)
            assert a_cycle(i + 3, length) is p
            assert a_cycle(i + 300, length) is p
            assert p.source == f"e{i}" and len(p.arrows) == length
            assert p.arrows == tuple(f"a{(i + k) % 3}" for k in range(length))


def test_vertex_composition():
    a0 = arrow("a0")
    assert compose(trivial("e0"), a0) == a0
    assert compose(a0, trivial("e0")) is None  # endpoint mismatch
    assert compose(a0, trivial("e1")) == a0


def test_parse_round_trip():
    p = parse_path("a0*a1")
    assert str(p) == "a0*a1" and p.source == "e0" and p.target == "e2"
    with pytest.raises(ValueError):
        parse_path("a1*a1")


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_basis_count(n):
    assert get_algebra(n).dim() == 9 * n + 10


def test_basis_n0_explicit():
    names = [str(p) for p in get_algebra(0).basis]
    assert names == ["e0", "e1", "f1", "e2", "a0", "b0", "a1", "b1", "a2", "a0*a1"]


def test_detour_rewrites_to_long_path():
    alg0 = get_algebra(0)
    assert alg0.normal_form_path(Path("e0", ("b0", "b1"))) == parse_path("a0*a1")
    alg2 = get_algebra(2)
    assert alg2.normal_form_path(Path("e0", ("b0", "b1"))) == a_cycle(0, 8)


def test_every_arrow_tag_is_a_letter_then_a_digit():
    # the normal form searches the joined tags as text, which finds only
    # whole tags when every tag is two characters of these two kinds
    assert all(len(t) == 2 and t[0].isalpha() and t[1].isdigit() for t in ARROWS)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_normal_form_by_text_equals_the_rewriting_on_tags(n, reference_normal_form):
    alg = FamilyAlgebra(n)
    paths = all_paths_up_to(3 * n + 4)
    # and longer words with the detour b0 b1 inside: it survives only at
    # the start, as the only arrow into e0 is a2 and a2 b0 is killed
    detour = Path("e0", ("b0", "b1"))
    short = [p for p in paths if len(p.arrows) <= n + 3]
    words = [
        compose(compose(u, detour), v)
        for u in short
        if u.target == "e0"
        for v in paths
        if v.source == "e2"
    ]
    rewritten = 0
    for p in paths + words:
        want = reference_normal_form(n, p)
        assert alg.normal_form_path(p) == want, p
        rewritten += want is not None and want != p
    assert rewritten > 0


def test_kill_rules():
    alg0 = get_algebra(0)
    assert alg0.normal_form_path(parse_path("a1*a2")) is None
    assert alg0.normal_form_path(parse_path("a2*a0")) is None
    assert alg0.normal_form_path(parse_path("b1*a2")) is None
    assert alg0.normal_form_path(parse_path("a2*b0")) is None
    alg1 = get_algebra(1)
    assert alg1.normal_form_path(parse_path("a0*a1")) == parse_path("a0*a1")
    # a cycle twice around contains the killed window
    assert alg1.normal_form_path(a_cycle(0, 6)) is None


def test_rewriting_terminates_and_is_idempotent():
    for n in (0, 1, 2):
        alg = get_algebra(n)
        for p in all_paths_up_to(3 * n + 4):
            q = alg.normal_form_path(p)
            if q is not None:
                assert alg.normal_form_path(q) == q
                assert len(q.arrows) <= 3 * n + 2


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_oracle_agrees_with_rewriting_basis(n):
    # the length-filtered row-reduction oracle is the authority
    L = 3 * n + 4
    alg = get_algebra(n)
    assert oracle_quotient_dim(n, L) == alg.dim()
    assert oracle_quotient_dim(n, L + 1) == alg.dim()  # stabilised
    # the rewriting basis really spans the truncated quotient: adding the
    # basis paths to the ideal echelon fills it to the full path space
    paths, ech = truncated_ideal_echelon(n, L)
    index = {p: i for i, p in enumerate(paths)}
    one = Fraction(1)
    for b in alg.basis:
        assert ech.add({index[b]: one}) is not None, f"{b} dependent on ideal"
    assert ech.rank == len(paths)


def test_corner_dimension_n0():
    alg = get_algebra(0)
    assert alg.corner_dim("e0", "e2") == 1  # the class of the doubled route
    assert alg.corner_dim("e1", "e0") == 0
    assert alg.corner_dim("e0", "f1") == 1


def test_relations_vanish_in_quotient():
    for n in (0, 1, 2):
        alg = get_algebra(n)
        for rel in ideal_relations(n):
            nf = ((q, c) for p, c in rel.items() if (q := alg.normal_form_path(p)) is not None)
            assert accumulate(nf, 0) == {}


def test_multiply_examples():
    alg2 = get_algebra(2)
    assert alg2.mul_path(trivial("e2"), arrow("a2")) == arrow("a2")
    assert alg2.mul_path(arrow("b0"), arrow("b1")) == a_cycle(0, 8)
    alg1 = get_algebra(1)
    assert alg1.mul_path(arrow("a0"), arrow("a1")) == parse_path("a0*a1")


@pytest.mark.parametrize(
    "n,field",
    [(n, QQ) for n in range(7)] + [(2, PrimeField(7))],
    ids=[str(n) for n in range(7)] + ["2-GF7"],
)
def test_product_table_matches_rewriting(n, field):
    fresh = FamilyAlgebra(n, field)
    # the rows are filled on first use, not when built
    assert not fresh.product_rows
    shared = get_algebra(n, field)
    index = fresh.basis_index
    for p in fresh.basis:
        for q in fresh.basis:
            pq = compose(p, q)
            want = None if pq is None else fresh.normal_form_path(pq)
            assert fresh.mul_path(p, q) == want
            assert fresh.mul_path(p, q) == want  # served from the table
            assert shared.mul_path(p, q) == want
            row = fresh.product_rows[index[p]]
            assert row[index[q]] == (None if want is None else index[want])
    assert len(fresh.product_rows) == len(fresh.basis)
    assert all(len(row) == len(fresh.basis) for row in fresh.product_rows.values())


def test_arrow_steps_are_built_with_the_basis():
    alg = FamilyAlgebra(1)
    assert not alg.product_rows
    splits, steps = alg.splits, alg.steps
    assert len(splits) == len(steps) == len(alg.basis)
    for k, p in enumerate(alg.basis):
        if splits[k] is None:
            assert p.is_vertex()
        else:
            prefix, tag = splits[k]
            assert compose(alg.basis[prefix], arrow(tag)) == p and prefix < k
        for tag in ARROWS:
            pa = compose(p, arrow(tag))
            if pa is None:
                assert tag not in steps[k]
            else:
                want = alg.normal_form_path(pa)
                assert steps[k][tag] == (None if want is None else alg.basis_index[want])


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_product_table_associative_on_basis(n):
    alg = FamilyAlgebra(n)
    mul = lambda p, q: None if p is None or q is None else alg.mul_path(p, q)
    for p in alg.basis:
        for q in alg.basis:
            pq = mul(p, q)
            for r in alg.basis:
                assert mul(pq, r) == mul(p, mul(q, r)), (p, q, r)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_multiplication_associative_and_unital(n):
    # the shared instance, whose rows other tests fill in any order
    alg = get_algebra(n)
    mul = lambda p, q: None if p is None or q is None else alg.mul_path(p, q)
    for p in alg.basis:
        for v in VERTICES:
            assert mul(trivial(v), p) == (p if v == p.source else None)
            assert mul(p, trivial(v)) == (p if v == p.target else None)
    rng = random.Random(20260810 + n)
    for _ in range(60):
        p, q, r = (rng.choice(alg.basis) for _ in range(3))
        assert mul(mul(p, q), r) == mul(p, mul(q, r))


def test_zero_products_iff_endpoints_or_relations():
    alg = get_algebra(0)
    for p in alg.basis:
        for q in alg.basis:
            prod = alg.mul_path(p, q)
            if p.target != q.source:
                assert prod is None
            else:
                assert prod == alg.normal_form_path(compose(p, q))


def test_gf_field_variant():
    alg = FamilyAlgebra(1, PrimeField(5))
    assert alg.dim() == 19
    assert alg.mul_path(arrow("b0"), arrow("b1")) == a_cycle(0, 5)


class _LongerFirstKillWord(FamilyAlgebra):
    """The member with its first kill word (a1 a2 a0)^n a1 a2 one arrow
    longer: then (a0 a1 a2)^(n+1), of length 3n + 3, is irreducible."""

    @property
    def kill_words(self):
        return self._kill_words

    @kill_words.setter
    def kill_words(self, words):
        self._kill_words = (words[0] + "a0",) + words[1:]


@pytest.mark.parametrize("n", [0, 1, 2])
def test_irreducible_path_past_the_detour_length_is_refused(n):
    with pytest.raises(ValueError, match="longer than 3n"):
        _LongerFirstKillWord(n)


def test_basis_walk_reaches_large_members():
    # a recursive walk would be 3n + 2 calls deep, past Python's default limit
    assert FamilyAlgebra(335).dim() == 9 * 335 + 10


def test_each_basis_path_and_arrow_is_rewritten_once(monkeypatch):
    words = []
    normal_form_path = FamilyAlgebra.normal_form_path
    monkeypatch.setattr(
        FamilyAlgebra, "normal_form_path", lambda alg, p: words.append(p) or normal_form_path(alg, p)
    )
    alg = FamilyAlgebra(5)
    for i in range(alg.dim()):
        alg.product_rows[i]
    pairs = [(p, tag) for p in alg.basis for tag in ARROWS if ARROW_SOURCE[tag] == p.target]
    assert len(words) == len(set(words)) == len(pairs) == 72


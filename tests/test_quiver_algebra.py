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
from quiverhh.linalg import QQ, PrimeField, axpy
from quiverhh.quiver import (
    ARROW_SOURCE,
    ARROWS,
    ARROW_TARGET,
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
            assert alg.normal_form({p: Fraction(c) for p, c in rel.items()}) == {}


def test_multiply_examples():
    alg2 = get_algebra(2)
    e2 = {trivial("e2"): 1}
    a2 = {arrow("a2"): 1}
    assert alg2.mul(e2, a2) == a2
    b0b1 = alg2.mul({arrow("b0"): 1}, {arrow("b1"): 1})
    assert b0b1 == {a_cycle(0, 8): Fraction(1)}
    alg1 = get_algebra(1)
    prod = alg1.mul({arrow("a0"): 1}, {arrow("a1"): 1})
    assert prod == {parse_path("a0*a1"): Fraction(1)}


@pytest.mark.parametrize(
    "n,field",
    [(n, QQ) for n in range(7)] + [(2, PrimeField(7))],
    ids=[str(n) for n in range(7)] + ["2-GF7"],
)
def test_product_table_matches_rewriting(n, field):
    fresh = FamilyAlgebra(n, field)
    # filled on first use, not when built: the rows and the arrow steps
    assert not fresh.product_rows
    assert "_arrow_steps" not in vars(fresh)
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
    assert "_arrow_steps" in vars(fresh)


def test_arrow_steps_are_built_by_the_first_row_read():
    alg = FamilyAlgebra(1)
    alg.product_rows[0]
    splits, steps = vars(alg)["_arrow_steps"]
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


def _random_element(alg, rng, size=3):
    out = {}
    for _ in range(size):
        p = rng.choice(alg.basis)
        c = Fraction(rng.randint(-4, 4))
        if c:
            axpy(out, 1, {p: c}, 0)
    return out


@pytest.mark.parametrize("n", [0, 1, 2])
def test_multiplication_associative_and_unital(n):
    alg = get_algebra(n)
    rng = random.Random(20260810 + n)
    unit = alg.unit()
    for _ in range(100):
        x = _random_element(alg, rng)
        assert alg.mul(x, unit) == x
        assert alg.mul(unit, x) == x
    for _ in range(60):
        x, y, z = (_random_element(alg, rng) for _ in range(3))
        assert alg.mul(alg.mul(x, y), z) == alg.mul(x, alg.mul(y, z))


def test_zero_products_iff_endpoints_or_relations():
    alg = get_algebra(0)
    for p in alg.basis:
        for q in alg.basis:
            prod = alg.mul({p: 1}, {q: 1})
            if p.target != q.source:
                assert prod == {}
            else:
                nf = alg.normal_form_path(compose(p, q))
                assert bool(prod) == (nf is not None)


def test_gf_field_variant():
    alg = FamilyAlgebra(1, PrimeField(5))
    assert alg.dim() == 19
    x = {arrow("b0"): 1}
    y = {arrow("b1"): 1}
    assert alg.mul(x, y) == {a_cycle(0, 5): 1}


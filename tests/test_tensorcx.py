from fractions import Fraction

import pytest

from quiverhh.linalg import axpy
from quiverhh.quiver import arrow, trivial
from quiverhh.uniform import Label


def tc_of(pipes, n):
    return pipes[n].tensor


def test_mismatched_inner_vertices_vanish(pipes):
    tc = tc_of(pipes, 0)
    res = tc.res
    a = res.generator(Label(0, "S", None))  # at e1
    b = res.generator(Label(0, "R", None))  # at e0
    assert tc.tensor(a, b) == {}


def test_matching_tensor_keeps_middle(pipes, decode, act):
    tc = tc_of(pipes, 0)
    res = tc.res
    index = res.algebra.basis_index
    left = act(res, index[trivial("e1")], res.generator(Label(0, "S", None)), index[arrow("a1")])
    right = res.generator(Label(1, "U", None))  # (e2, e0)
    got = tc.tensor(left, right)
    ((g1, g2, l, m, r),) = decode(tc, got)
    assert (str(g1), str(g2)) == ("S0", "U1")
    assert str(m) == "a1" and l == trivial("e1")


def test_diagonal_tensor_trivial_middle(pipes, decode):
    tc = tc_of(pipes, 0)
    res = tc.res
    g = res.generator(Label(0, "R", None))
    got = tc.tensor(g, g)
    ((_, _, l, m, r),) = decode(tc, got)
    assert l == m == r == trivial("e0")


def test_tensor_bilinear_and_idempotent_normalisation(pipes, decode, act):
    tc = tc_of(pipes, 1)
    res = tc.res
    alg = res.algebra
    two = Fraction(2)
    index = alg.basis_index
    a = act(res, index[trivial("e0")], res.generator(Label(1, "R", 0)), index[arrow("a1")])
    b = res.generator(Label(2, "U", 0))
    t1 = tc.tensor(axpy({}, two, a, 0), b)
    t2 = axpy({}, two, tc.tensor(a, b), 0)
    assert t1 == t2
    # slot paths of a normalised element are already basis normal forms
    for (g1, g2, l, m, r) in decode(tc, t1):
        assert alg.normal_form_path(l) == l
        assert alg.normal_form_path(m) == m
        assert alg.normal_form_path(r) == r


def test_total_differential_example(pipes):
    # one step inside the degree-0 corner: only the second factor moves
    tc = tc_of(pipes, 0)
    res = tc.res
    elem = tc.tensor(res.generator(Label(0, "R", None)), res.generator(Label(1, "R", 0)))
    img = tc.differential(elem)
    want = {}
    for key, c in tc.tensor(
        res.generator(Label(0, "R", None)),
        res.apply_boundary(1, res.generator(Label(1, "R", 0))),
    ).items():
        want[key] = c
    assert img == want


def test_sign_on_second_factor(pipes):
    tc = tc_of(pipes, 0)
    res = tc.res
    one = Fraction(1)
    # bidegree (1, 1): d = boundary x 1 - 1 x boundary
    elem = tc.tensor(res.generator(Label(1, "S", None)), res.generator(Label(1, "U", None)))
    img = tc.differential(elem)
    first = tc.tensor(
        res.apply_boundary(1, res.generator(Label(1, "S", None))),
        res.generator(Label(1, "U", None)),
    )
    second = tc.tensor(
        res.generator(Label(1, "S", None)),
        res.apply_boundary(1, res.generator(Label(1, "U", None))),
    )
    assert img == axpy(first, -one, second, 0)


@pytest.mark.parametrize("n,top", [(0, 8), (1, 8), (2, 8)])
def test_differential_squares_to_zero_exhaustively(pipes, tensor_triples, n, top):
    tc = tc_of(pipes, n)
    one = Fraction(1) if n >= 0 else None
    for m in range(2, top + 1):
        for tr in tensor_triples(tc, m):
            assert not tc.differential(tc.differential({tr: 1})), (n, m, tr)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_augmentation_kills_first_boundary(pipes, tensor_triples, n):
    tc = tc_of(pipes, n)
    for tr in tensor_triples(tc, 1):
        img = tc.differential({tr: 1})
        assert tc.augment(img) == {}

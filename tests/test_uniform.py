import pytest

from quiverhh.linalg import axpy
from quiverhh.quiver import Path, a_cycle, arrow, compose
from quiverhh.resolution import boundary_shape
from quiverhh.uniform import Label, UniformPaths, generator_labels, label_at, label_pair


def test_generator_counts_follow_residue_pattern():
    assert len(generator_labels(0)) == 4
    for m in range(1, 13):
        assert len(generator_labels(m)) == (6 if m % 3 == 0 else 5)


def test_degree0_pairs():
    assert [label_pair(l) for l in generator_labels(0)] == [
        ("e0", "e0"),
        ("e1", "e1"),
        ("f1", "f1"),
        ("e2", "e2"),
    ]


def test_mixed_pairs_only_at_positive_multiples_of_three():
    pairs3 = [label_pair(l) for l in generator_labels(3)]
    assert ("e1", "f1") in pairs3 and ("f1", "e1") in pairs3
    pairs4 = [label_pair(l) for l in generator_labels(4)]
    assert len(pairs4) == 5 and ("e0", "f1") in pairs4


def test_label_at_inverts_label_pair():
    vertices = ("e0", "e1", "f1", "e2")
    for m in range(0, 14):
        labels = generator_labels(m)
        for lab in labels:
            assert label_at(m, *label_pair(lab)) == lab
        pairs = {label_pair(lab) for lab in labels}
        for pair in ((o, t) for o in vertices for t in vertices):
            if pair not in pairs:
                assert label_at(m, *pair) is None
    assert label_at(0, "e0", "e1") is None
    assert label_at(1, "e0", "e0") is None


def test_explicit_low_degree_families():
    u = UniformPaths(1)
    g1 = u.family(1)
    assert g1[Label(1, "R", 0)] == {arrow("a0"): 1}
    assert g1[Label(1, "R", 1)] == {arrow("b0"): 1}
    assert g1[Label(1, "S", None)] == {arrow("a1"): 1}
    assert g1[Label(1, "T", None)] == {arrow("b1"): 1}
    assert g1[Label(1, "U", None)] == {arrow("a2"): 1}
    g2 = u.family(2)
    assert g2[Label(2, "R", None)] == {a_cycle(0, 5): 1, Path("e0", ("b0", "b1")): -1}
    assert g2[Label(2, "S", None)] == {a_cycle(1, 5): 1}
    assert g2[Label(2, "T", None)] == {Path("f1", ("b1", "a2")): 1}
    assert g2[Label(2, "U", 0)] == {a_cycle(2, 5): 1}
    assert g2[Label(2, "U", 1)] == {Path("e2", ("a2", "b0")): 1}


@pytest.mark.parametrize("n", [0, 1, 2])
def test_uniformity_and_endpoints(n):
    u = UniformPaths(n)
    for m in range(0, 13):
        for lab in generator_labels(m):
            elem = u.element(lab)
            assert elem, lab
            assert u.endpoints(lab) == label_pair(lab)
            for p in elem:
                assert len(p.arrows) >= m or n == 0 and len(p.arrows) >= min(m, 2)


def _fmul(elem, p):
    out = {}
    for q, c in elem.items():
        qp = compose(q, p)
        out[qp] = out.get(qp, 0) + c
    return {k: v for k, v in out.items() if v}


def _fsub(x, y):
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0) - c
        if not out[k]:
            del out[k]
    return out


@pytest.mark.parametrize("n", [0, 1, 2])
def test_recursion_identities_by_direct_evaluation(n):
    """Re-derive each family element from the previous degree and compare
    word by word.  The two degree-1 steps whose inputs would need the
    mixed-pair generators missing from degree 0 are skipped."""
    u = UniformPaths(n)
    a0, a1, a2, b0, b1 = (arrow(t) for t in ("a0", "a1", "a2", "b0", "b1"))
    long0, long1, long2 = (a_cycle(i, 3 * n + 1) for i in range(3))

    def g(m, fam, sub=None):
        return u.element(Label(m, fam, sub))

    for m in range(1, 13):
        r = m % 6
        if r == 1:
            if m > 1:
                assert g(m, "R", 0) == _fmul(g(m - 1, "R"), a0)
                assert g(m, "R", 1) == _fmul(g(m - 1, "R"), b0)
                assert g(m, "S") == _fsub(_fmul(g(m - 1, "S", 0), a1), _fmul(g(m - 1, "S", 1), b1))
                assert g(m, "T") == _fsub(_fmul(g(m - 1, "T", 0), long1), _fmul(g(m - 1, "T", 1), b1))
                assert g(m, "U") == _fmul(g(m - 1, "U"), a2)
            else:
                # degree 0 has no mixed pairs: only the single-input steps
                assert g(1, "R", 0) == _fmul(g(0, "R"), a0)
                assert g(1, "R", 1) == _fmul(g(0, "R"), b0)
                assert g(1, "U") == _fmul(g(0, "U"), a2)
        elif r == 2:
            assert g(m, "R") == _fsub(_fmul(g(m - 1, "R", 0), long1), _fmul(g(m - 1, "R", 1), b1))
            assert g(m, "S") == _fmul(g(m - 1, "S"), long2)
            assert g(m, "T") == _fmul(g(m - 1, "T"), a2)
            assert g(m, "U", 0) == _fmul(g(m - 1, "U"), long0)
            assert g(m, "U", 1) == _fmul(g(m - 1, "U"), b0)
        elif r == 3:
            assert g(m, "R") == _fmul(g(m - 1, "R"), a2)
            assert g(m, "S", 0) == _fmul(g(m - 1, "S"), a0)
            assert g(m, "S", 1) == _fmul(g(m - 1, "S"), b0)
            assert g(m, "T", 0) == _fmul(g(m - 1, "T"), long0)
            assert g(m, "T", 1) == _fmul(g(m - 1, "T"), b0)
            assert g(m, "U") == _fsub(_fmul(g(m - 1, "U", 0), a1), _fmul(g(m - 1, "U", 1), b1))
        elif r == 4:
            assert g(m, "R", 0) == _fmul(g(m - 1, "R"), long0)
            assert g(m, "R", 1) == _fmul(g(m - 1, "R"), b0)
            assert g(m, "S") == _fsub(_fmul(g(m - 1, "S", 0), a1), _fmul(g(m - 1, "S", 1), b1))
            assert g(m, "T") == _fsub(_fmul(g(m - 1, "T", 0), a1), _fmul(g(m - 1, "T", 1), b1))
            assert g(m, "U") == _fmul(g(m - 1, "U"), long2)
        elif r == 5:
            assert g(m, "R") == _fsub(_fmul(g(m - 1, "R", 0), a1), _fmul(g(m - 1, "R", 1), b1))
            assert g(m, "S") == _fmul(g(m - 1, "S"), a2)
            assert g(m, "T") == _fmul(g(m - 1, "T"), long2)
            assert g(m, "U", 0) == _fmul(g(m - 1, "U"), a0)
            assert g(m, "U", 1) == _fmul(g(m - 1, "U"), b0)
        else:
            assert g(m, "R") == _fmul(g(m - 1, "R"), long2)
            assert g(m, "S", 0) == _fmul(g(m - 1, "S"), long0)
            assert g(m, "S", 1) == _fmul(g(m - 1, "S"), b0)
            assert g(m, "T", 0) == _fmul(g(m - 1, "T"), a0)
            assert g(m, "T", 1) == _fmul(g(m - 1, "T"), b0)
            assert g(m, "U") == _fsub(_fmul(g(m - 1, "U", 0), a1), _fmul(g(m - 1, "U", 1), b1))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_alias_steps_agree(n):
    """Steps printed twice through the alias arrow agree: multiplying by
    the closing cycle arrow gives the same words under either name."""
    from quiverhh.quiver import parse_path

    u = UniformPaths(n)
    r2 = u.element(Label(2, "R", None))
    assert u.element(Label(3, "R", None)) == _fmul(r2, arrow("a2"))
    assert parse_path("b2") == arrow("a2")


@pytest.mark.parametrize("n", [0, 1, 2])
def test_uniform_paths_match_the_boundary_shapes(n):
    """The two transcriptions of the generators, in the free algebra: the
    terms (e, tgt, right, s) of a printed boundary shape with a trivial
    left path give sum s * g_tgt * right = g, the uniform element of their
    label, and at n = 0 the terms with a trivial right path give
    sum s * left * g_tgt = (-1)^m g.  For n >= 1 the recursion steps of
    S4 and U6 and their period copies multiply by a1 where the boundary
    shape, which the resolution verifies exact, has (a1 a2 a0)^n a1."""
    u = UniformPaths(n)
    differ = set()
    for m in range(1, 19):
        for lab, terms in boundary_shape(m, n).items():
            times_right, times_left = {}, {}
            for left, tgt, right, s in terms:
                g = u.element(tgt)
                if left.is_vertex():
                    axpy(times_right, s, _fmul(g, right), 0)
                if right.is_vertex():
                    axpy(times_left, s, {compose(left, q): c for q, c in g.items()}, 0)
            g = u.element(lab)
            if times_right != g:
                differ.add(str(lab))
            if n == 0:
                assert times_left == {q: (-1) ** m * c for q, c in g.items()}, lab
    assert differ == (set() if n == 0 else {"S4", "U6", "S10", "U12", "S16", "U18"})

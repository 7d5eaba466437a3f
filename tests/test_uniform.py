import pytest

from quiverhh.linalg import axpy
from quiverhh.quiver import arrow, compose, parse_path
from quiverhh.resolution import boundary_shape
from quiverhh.uniform import Label, generator_labels, label_at, label_pair


def test_generator_counts_follow_residue_pattern():
    assert len(generator_labels(0)) == 4
    for m in range(1, 13):
        assert len(generator_labels(m)) == (6 if m % 3 == 0 else 5)


def test_generator_labels_are_built_once_per_degree():
    names = {
        0: "R0 S0 T0 U0",
        1: "R1_0 R1_1 S1 T1 U1",
        2: "R2 S2 T2 U2_0 U2_1",
        3: "R3 S3_0 S3_1 T3_0 T3_1 U3",
        7: "R7_0 R7_1 S7 T7 U7",
    }
    for m, text in names.items():
        labels = generator_labels(m)
        assert labels is generator_labels(m)
        assert type(labels) is tuple and all(type(lab) is Label for lab in labels)
        assert " ".join(map(str, labels)) == text
    with pytest.raises(ValueError):
        generator_labels(-1)


def test_positive_degree_labels_repeat_with_period_three():
    # so the period certificate of the resolution compares only shapes
    for k in range(1, 40):
        for j in range(1, 5):
            shifted = tuple(lab._replace(degree=lab.degree + 3 * j) for lab in generator_labels(k))
            assert generator_labels(k + 3 * j) == shifted, (k, j)


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


@pytest.mark.parametrize("n", [0, 1, 2])
def test_uniformity_and_endpoints(n, uniform_families):
    families = uniform_families(n, 12)
    for m in range(0, 13):
        for lab in generator_labels(m):
            elem = families[m][lab]
            assert elem, lab
            assert {(p.source, p.target) for p in elem} == {label_pair(lab)}, lab
            for p in elem:
                assert len(p.arrows) >= m or n == 0 and len(p.arrows) >= min(m, 2)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_alias_steps_agree(n, uniform_families):
    """Steps printed twice through the alias arrow agree: multiplying by
    the closing cycle arrow gives the same words under either name."""
    families = uniform_families(n, 3)
    r2 = families[2][Label(2, "R", None)]
    a2 = parse_path("b2")
    assert a2 == arrow("a2")
    assert families[3][Label(3, "R", None)] == {compose(q, a2): c for q, c in r2.items()}


@pytest.mark.parametrize("n", [0, 1, 2])
def test_uniform_paths_match_the_boundary_shapes(n, uniform_families):
    """The two transcriptions of the generators, in the free algebra: the
    terms (e, tgt, right, s) of a printed boundary shape with a trivial
    left path give sum s * g_tgt * right = g, the uniform element of their
    label, and at n = 0 the terms with a trivial right path give
    sum s * left * g_tgt = (-1)^m g.  For n >= 1 the recursion steps of
    S4 and U6 and their period copies multiply by a1 where the boundary
    shape, which the resolution verifies exact, has (a1 a2 a0)^n a1.
    Which of the two forms the paper prints cannot be checked here, so
    the differing set is pinned as a finding."""
    families = uniform_families(n, 18)
    differ = set()
    for m in range(1, 19):
        for lab, terms in boundary_shape(m, n).items():
            times_right, times_left = {}, {}
            for left, tgt, right, s in terms:
                g = families[tgt.degree][tgt]
                if left.is_vertex():
                    axpy(times_right, s, {compose(q, right): c for q, c in g.items()}, 0)
                if right.is_vertex():
                    axpy(times_left, s, {compose(left, q): c for q, c in g.items()}, 0)
            g = families[m][lab]
            if times_right != g:
                differ.add(str(lab))
            if n == 0:
                assert times_left == {q: (-1) ** m * c for q, c in g.items()}, lab
    assert differ == (set() if n == 0 else {"S4", "U6", "S10", "U12", "S16", "U18"})

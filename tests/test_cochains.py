from fractions import Fraction

import pytest

from quiverhh.algebra import get_algebra
from quiverhh.cochains import CochainName, HochschildComplex
from quiverhh.linalg import QQ, Matrix, PrimeField, SparseEchelon, accumulate, kernel_basis
from quiverhh.quiver import a_cycle, arrow, trivial
from quiverhh.resolution import Resolution
from quiverhh.uniform import Label, generator_labels, label_index, label_pair


def hc_of(pipes, n):
    return pipes[n].hochschild


def position(hc, lab, path):
    """The hom basis position of the coordinate (lab, path)."""
    return hc.hom_basis(lab.degree)[1][(label_index(lab), hc.alg.basis_index[path])]


@pytest.mark.parametrize("n", [0, 1, 2])
def test_hom_dimensions(pipes, n):
    hc = hc_of(pipes, n)
    for m in range(0, 9):
        want = 3 * n + 4 if m % 3 == 0 else (3 * n + 5 if m % 3 == 1 else 3 * n + 1)
        assert hc.hom_dim(m) == want
        assert len(hc.named_basis(m)) == want


def test_named_degree_zero_basis(pipes):
    hc = hc_of(pipes, 0)
    names = [str(c.name) for c in hc.named_basis(0)]
    assert names == ["alpha_0^0", "alpha_1^0", "alpha_2^0", "beta"]
    alpha0 = hc.named(0, CochainName("alpha", 0, 0))
    assert alpha0.vec == {position(hc, Label(0, "R", None), trivial("e0")): Fraction(1)}


def test_named_nu_and_eta(pipes):
    hc = hc_of(pipes, 1)
    nu0 = hc.named(1, CochainName("nu", 0))
    assert nu0.vec == {position(hc, Label(1, "R", 1), arrow("b0")): Fraction(1)}
    eta = hc.named(2, CochainName("eta"))
    assert eta.vec == {position(hc, Label(2, "R", None), a_cycle(0, 5)): Fraction(1)}
    theta_names = [str(c.name) for c in hc.named_basis(2)]
    assert theta_names == ["theta_0^0", "theta_1^0", "theta_2^0", "eta"]


def test_alpha_powers(pipes):
    hc = hc_of(pipes, 2)
    a = hc.named(0, CochainName("alpha", 1, 2))
    assert a.vec == {position(hc, Label(0, "S", None), a_cycle(1, 6)): Fraction(1)}


def test_x_is_cocycle_via_explicit_pairing(pipes):
    hc = hc_of(pipes, 0)
    x = hc.x_cochain()
    db = hc.coboundary(x)
    assert db.is_zero()


def test_non_cocycle_detected(pipes):
    hc = hc_of(pipes, 0)
    alpha0 = hc.named(0, CochainName("alpha", 0, 0))
    assert not hc.is_cocycle(alpha0)
    db = hc.coboundary(alpha0)
    assert not db.is_zero()


def test_cochains_of_different_degrees_do_not_add(pipes):
    hc = hc_of(pipes, 0)
    with pytest.raises(ValueError, match="degrees 0 and 1"):
        hc.add(hc.zero_cochain(0), hc.zero_cochain(1))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_coboundary_squared_zero(pipes, n):
    hc = hc_of(pipes, n)
    for m in range(0, 8):
        for c in hc.named_basis(m):
            assert hc.coboundary(hc.coboundary(c)).is_zero()


def test_lambda0_cohomology_dimensions(pipes):
    hc = hc_of(pipes, 0)
    dims = [hc.hh_dimension(j) for j in range(13)]
    assert dims == [1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1]


def test_xyz_classes_nonzero(pipes):
    hc = hc_of(pipes, 0)
    for c in (hc.x_cochain(), hc.y_cochain(), hc.z_cochain()):
        assert hc.is_cocycle(c)
        assert hc.class_residual(c) != ()


def test_class_residual_constant_on_coboundary_shifts(pipes):
    hc = hc_of(pipes, 0)
    y = hc.y_cochain()
    shift = hc.coboundary(hc.named(0, CochainName("alpha", 0, 0)))
    assert hc.class_residual(hc.add(y, shift)) == hc.class_residual(y)
    # a residual that stopped at the first index without a pivot would
    # tell these shifts apart from the unshifted cocycle
    hc = hc_of(pipes, 1)
    f = hc.zero_cochain(2)
    for i in range(3):
        f = hc.add(f, hc.named(2, CochainName("theta", i, 0)))
    for g in hc.named_basis(1):
        shifted = hc.add(f, hc.coboundary(g))
        assert hc.class_residual(shifted) == hc.class_residual(f), g.name
        assert hc.classes_equal(f, shifted)


def test_cohomology_representatives_are_cocycles(pipes):
    hc = hc_of(pipes, 1)
    for j in range(0, 8):
        dim, reps = hc.cohomology(j)
        assert len(reps) == dim
        for r in reps:
            assert hc.is_cocycle(r)


def direct_coboundary_columns(hc, m):
    """The coboundary of each degree-m basis cochain, walked from the
    `apply_boundary` images of the degree-(m + 1) generators."""
    res, alg = hc.res, hc.alg
    terms = [[] for _ in hc.hom_basis(m)[0]]
    for gen in generator_labels(m + 1):
        for (g, l, r), c in res.apply_boundary(m + 1, res.generator(gen)).items():
            lab, left, right = generator_labels(m)[g & 7], alg.basis[l], alg.basis[r]
            for p in alg.corners[label_pair(lab)]:
                q = alg.mul_path(left, p)
                if q is not None and (q := alg.mul_path(q, right)) is not None:
                    terms[position(hc, lab, p)].append((position(hc, gen, q), c))
    return [accumulate(t, hc.field.p) for t in terms]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_period_shared_coboundary_data_match_direct_computation(n, field):
    hc = HochschildComplex(Resolution(get_algebra(n, field)))
    p = field.p
    for m in range(8, 14):
        assert hc._map(m)[0] is hc._map(m - 6)[0]
        assert hc._map(m - 1)[2] is hc._map(m - 7)[2]
        assert hc._map(m)[1] is hc._map(m - 6)[1]
        cols = direct_coboundary_columns(hc, m)
        assert hc._map(m)[0] == cols
        ech = SparseEchelon(p)
        for vec in direct_coboundary_columns(hc, m - 1):
            ech.add(vec)
        assert hc._map(m - 1)[2].rows == ech.rows
        assert hc._map(m)[1] == kernel_basis(Matrix(hc.hom_dim(m + 1), cols), p)[0]


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(11)], ids=["QQ", "GF5", "GF11"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_hh_dimension_is_cocycles_minus_coboundaries(n, field):
    # the combined echelon of `cohomology` against kernel minus image
    hc = HochschildComplex(Resolution(get_algebra(n, field)))
    for m in range(14):
        want = len(hc._map(m)[1]) - hc._map(m - 1)[2].rank
        assert hc.hh_dimension(m) == want, m


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_deep_read_keeps_one_period_of_coboundary_records(field):
    # every degree from 8 on shares the record of the degree six below
    hc = HochschildComplex(Resolution(get_algebra(1, field)))
    for m in range(61):
        hc.hh_dimension(m)
    assert sorted(hc._maps) == list(range(-1, 7))
    for m in range(8, 61):
        assert hc._map(m) is hc._map(m - 6), m


def test_guards_hold_under_python_O():
    # python -O drops assert statements, so a guard must raise instead
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from quiverhh.algebra import get_algebra\n"
        "from quiverhh.cochains import CochainName, HochschildComplex\n"
        "from quiverhh.diagonal import OneSidedContraction\n"
        "from quiverhh.linalg import QQ, LinearSolver\n"
        "from quiverhh.quiver import arrow\n"
        "from quiverhh import resolution\n"
        "from quiverhh.resolution import Resolution\n"
        "def refusal(call):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        return str(exc)\n"
        "res = Resolution(get_algebra(0, QQ))\n"
        "hc = HochschildComplex(res)\n"
        "print(refusal(lambda: hc.class_residual(hc.named(1, CochainName('nu', 0)))))\n"
        "LinearSolver.solve = lambda self, b: None\n"
        "print(refusal(lambda: OneSidedContraction(res, 'right').table[0]))\n"
        # a degree-1 term whose left path b1 does not start at e0, the
        # origin of R1_0
        "shape = resolution.boundary_shape\n"
        "def bent(m, n):\n"
        "    sh = shape(m, n)\n"
        "    (_, tgt, right, sign), *rest = sh[first := next(iter(sh))]\n"
        "    sh[first] = [(arrow('b1'), tgt, right, sign), *rest]\n"
        "    return sh\n"
        "resolution.boundary_shape = bent\n"
        "print(refusal(lambda: Resolution(get_algebra(0, QQ)).shape(1)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, str(src)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "not a cocycle",
        "contraction solve failed at degree 0",
        "boundary of R1_0: term b1 R0 a0 has wrong ends",
    ]

"""Acceptance suite.

One test per acceptance item (criterion 10 is split into its named
sub-properties).  Every check is exact: equalities of dictionaries of
Fractions, no tolerances anywhere.  Each test prints a single summary
line; run with `pytest tests/test_acceptance.py -v -s` to see them all.

Two sub-assertions encode published nilpotence relations that exact
computation contradicts (the degree 1 x degree 6 cup products are
nonzero classes in degree-7 cohomology, over the rationals and over
prime fields, under two independent lifts).  They are asserted as
published and fail honestly; see the ring report for the computed
values.
"""

import itertools
import json
import pathlib
import sys
from fractions import Fraction
from importlib import resources

import pytest

from quiverhh import Pipeline, RunConfig
from quiverhh.algebra import get_algebra, oracle_quotient_dim, truncated_ideal_echelon
from quiverhh.cochains import CochainName
from quiverhh.uniform import Label, generator_labels, label_index, label_pair

GOLDENS = pathlib.Path(__file__).parent / "goldens"


def report(item, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {item}: {status}{' - ' + detail if detail else ''}"
    # bypass capture so the one-line-per-criterion summary always shows
    print(line, file=sys.__stdout__)
    assert ok, f"{item} {detail}"


def test_c01_algebra_dimensions():
    expected = {0: 10, 1: 19, 2: 28, 3: 37}
    ok = True
    for n, want in expected.items():
        alg = get_algebra(n)
        L = 3 * n + 4
        ok = ok and alg.dim() == want
        ok = ok and oracle_quotient_dim(n, L) == want
        ok = ok and oracle_quotient_dim(n, L + 1) == want
        paths, ech = truncated_ideal_echelon(n, L)
        index = {p: i for i, p in enumerate(paths)}
        for b in alg.basis:
            ok = ok and ech.add({index[b]: Fraction(1)}) is not None
    report("1 algebra dimensions 9n+10 vs oracle", ok)


def test_c02_complex_property(pipes):
    ok = True
    for n in (0, 1, 2):
        rows = pipes[n].resolution.verify_complex(12)
        ok = ok and [r["status"] for r in rows] == ["pass"] * 12
    report("2 boundary-squared = 0, degrees 0..11, n = 0,1,2", ok)


def test_c03_acyclicity(pipes):
    ok = True
    for n in (0, 1, 2):
        rows = pipes[n].resolution.verify_exactness(10)
        ok = ok and all(r["status"] == "pass" for r in rows)
    report("3 exactness at degrees 0..9, n = 0,1,2", ok)


def test_c04_literal_diagonal_squares(pipes):
    ok = True
    for n in (0, 1, 2):
        dm = pipes[n].diagonal
        fam = dm.literal_family()
        rows = dm.verify_squares(fam, 9)
        by_degree = {}
        for r in rows:
            by_degree.setdefault(r["degree"], []).append(r)
        # the three published checks: augmentation (times 2), degree 1, degree 2
        ok = ok and fam.lift_factor == 2
        for m in (0, 1, 2):
            ok = ok and all(r["status"] == "pass" for r in by_degree[m])
        got = [
            {"id": f"square-{r['degree']}-{r['generator']}", "status": r["status"]}
            for r in rows
        ]
        golden = json.loads((GOLDENS / "squares_literal.json").read_text())
        ok = ok and got == golden[str(n)]
    report("4 literal-diagonal squares (three published checks + golden report)", ok)


def test_c05_solved_diagonal(pipes, solved_families):
    ok = True
    for n in (0, 1, 2):
        dm = pipes[n].diagonal
        fam = solved_families[n]
        rows = dm.verify_squares(fam, 9)
        ok = ok and all(r["status"] == "pass" for r in rows)
        for lab in generator_labels(0):
            ok = ok and dm.tc.augment(fam.images[0][label_index(lab)]) == dm.res.augment(dm.res.generator(lab))
    # bit-determinism across two fresh builds
    a = Pipeline(RunConfig(n=1, max_degree=9))
    b = Pipeline(RunConfig(n=1, max_degree=9))
    ja = json.dumps(a.family_json(a.diagonal.solved_family()), sort_keys=True)
    jb = json.dumps(b.family_json(b.diagonal.solved_family()), sort_keys=True)
    ok = ok and ja.encode() == jb.encode()
    report("5 solved diagonal exact to degree 9, identity lift, deterministic", ok)


def test_c06_hom_dimensions(pipes):
    ok = True
    for n in (0, 1, 2):
        hc = pipes[n].hochschild
        for m in range(0, 9):
            want = 3 * n + 4 if m % 3 == 0 else (3 * n + 5 if m % 3 == 1 else 3 * n + 1)
            ok = ok and hc.hom_dim(m) == want
    report("6 cochain-space dimensions 3n+4 / 3n+5 / 3n+1", ok)


def test_c07_lambda0_cohomology(pipes):
    hc = pipes[0].hochschild
    ok = all(hc.hh_dimension(j) == 0 for j in (2, 3, 4, 5))
    for c, j in ((hc.x_cochain(), 0), (hc.y_cochain(), 1), (hc.z_cochain(), 6)):
        ok = ok and c.degree == j and hc.is_cocycle(c) and hc.class_residual(c) != ()
    report("7 cohomology of the first member: middle degrees vanish, x,y,z nonzero", ok)


def test_c08_star_products(pipes):
    ok = True
    for n in (0, 1, 2):
        hc, pr = pipes[n].hochschild, pipes[n].products

        def named(m, *a):
            return hc.named(m, CochainName(*a))

        beta = named(0, "beta")
        psi = named(3, "psi")
        ok = ok and pr.star(psi, beta) == psi
        nu0 = named(1, "nu", 0)
        ok = ok and pr.star(nu0, beta) == nu0
        for s in range(3):
            for t2 in range(n + 1):
                ok = ok and pr.star(nu0, named(0, "alpha", s, t2)).is_zero()
        # mu against the successor-index projection (the displayed case)
        for i in range(3):
            for t in range(n + 1):
                for t2 in range(n + 1):
                    if t + t2 > n:
                        continue
                    got = pr.star(named(1, "mu", i, t), named(0, "alpha", (i + 1) % 3, t2))
                    ok = ok and got == named(1, "mu", i, t + t2)
        for i, j in itertools.product(range(3), repeat=2):
            ok = ok and pr.star(named(1, "mu", i, 0), named(1, "mu", j, 0)).is_zero()
        for i in range(3):
            for t in range(n):
                ok = ok and pr.star(named(2, "theta", i, t), beta).is_zero()
        for s in range(3):
            for t in range(n + 1):
                ok = ok and pr.star(named(0, "alpha", s, t), beta).is_zero()
        eta = named(2, "eta")
        ok = ok and pr.star(eta, named(0, "alpha", 2, 0)) == eta
        ok = ok and pr.star(named(1, "nu", 1), named(0, "alpha", 2, 0)) == named(1, "nu", 1)
        for s, s2 in itertools.product(range(3), repeat=2):
            for t, t2 in itertools.product(range(n + 1), repeat=2):
                if s != s2 or t + t2 > n:
                    ok = ok and pr.star(
                        named(0, "alpha", s, t), named(0, "alpha", s2, t2)
                    ).is_zero()
    report("8 published star-product entries (exact forms)", ok)


def test_c09_published_xyz_table_and_kd_ledger(pipes):
    from quiverhh.reports import kd_ledger, ring_star_report

    hc, pr = pipes[0].hochschild, pipes[0].products
    rows = ring_star_report(hc, pr)
    by = {(r["left"], r["right"]): r for r in rows}
    ok = all(
        by[k]["status"] == "match"
        for k in by
        if k != ("z", "z")
    )
    ok = ok and by[("z", "z")]["status"] == "deviation"
    ok = ok and by[("z", "z")]["kd"] == "KD-2"
    ok = ok and by[("z", "z")]["computed"] == "0" and by[("z", "z")]["table"] == "x"
    with resources.files("quiverhh.goldens").joinpath("kd_ledger.json").open() as fh:
        golden = json.load(fh)
    ok = ok and [r["id"] for r in kd_ledger()] == [r["id"] for r in golden] == ["KD-1", "KD-2"]
    report("9 chain-level x,y,z table with the z*z deviation ledgered as KD-2", ok)


@pytest.fixture(scope="module")
def cup_setup(pipes, solved_families):
    pipe = pipes[0]
    hc, pr, dm = pipe.hochschild, pipe.products, pipe.diagonal
    fam = solved_families[0]
    dm.verify_squares(fam, 12)
    return hc, pr, dm, fam


def test_c10a_unit_law(cup_setup):
    hc, pr, dm, fam = cup_setup
    x = hc.x_cochain()
    ok = True
    for j in range(0, 13):
        dim, reps = hc.cohomology(j)
        for r in reps:
            ok = ok and hc.classes_equal(pr.cup(x, r, fam), r)
            ok = ok and hc.classes_equal(pr.cup(r, x, fam), r)
    report("10a unit law for the degree-0 class through degree 12", ok)


def test_c10b_y_squared_zero(cup_setup):
    hc, pr, dm, fam = cup_setup
    y = hc.y_cochain()
    report("10b y cup y vanishes in cohomology", hc.class_residual(pr.cup(y, y, fam)) == ())


def test_c10c_y_z_products_vanish(cup_setup):
    # published relations; the exact computation contradicts them (the
    # products are nonzero in the one-dimensional degree-7 cohomology,
    # over every field tried and independently of the lift)
    hc, pr, dm, fam = cup_setup
    y, z = hc.y_cochain(), hc.z_cochain()
    yz_zero = hc.class_residual(pr.cup(y, z, fam)) == ()
    zy_zero = hc.class_residual(pr.cup(z, y, fam)) == ()
    report("10c y cup z and z cup y vanish (as published)", yz_zero and zy_zero)


def test_c10d_z_squared_nonzero(cup_setup):
    hc, pr, dm, fam = cup_setup
    z = hc.z_cochain()
    zz = pr.cup(z, z, fam)
    ok = zz.degree == 12 and hc.class_residual(zz) != () and hc.hh_dimension(12) >= 1
    report("10d z cup z is a nonzero class in degree 12", ok)


def test_c10e_graded_commutativity(cup_setup):
    hc, pr, dm, fam = cup_setup
    x, y, z = hc.x_cochain(), hc.y_cochain(), hc.z_cochain()
    ok = True
    for f, g in itertools.product((x, y, z), repeat=2):
        sign = (-1) ** (f.degree * g.degree)
        ok = ok and hc.class_residual(pr.cup(f, g, fam)) == hc.class_residual(
            hc.scale(sign, pr.cup(g, f, fam))
        )
    report("10e graded commutativity on all tested pairs", ok)


def test_c10f_lift_independence(cup_setup, corner_homotopy, homotopy_solve):
    hc, pr, dm, fam = cup_setup
    x, y, z = hc.x_cochain(), hc.y_cochain(), hc.z_cochain()
    k = corner_homotopy(dm)
    fam2 = dm.corrected_family(fam, k)
    ok = any(fam.images[m] != fam2.images[m] for m in fam.images)
    ok = ok and all(r["status"] == "pass" for r in dm.verify_squares(fam2, 12))
    h, bad = homotopy_solve(dm, fam, fam2, 12)
    ok = ok and h is not None and bad is None
    for f, g in itertools.product((x, y, z), repeat=2):
        ok = ok and hc.class_residual(pr.cup(f, g, fam)) == hc.class_residual(
            pr.cup(f, g, fam2)
        )
    report("10f cup classes invariant under change of lift", ok)


def test_c11_uniform_paths(uniform_families):
    # the explicit degree-0..2 lists and the step formulas build the
    # fixture; here each family is checked against the label tables, and
    # test_uniform checks every element against the boundary shapes
    ok = True
    for n in (0, 1, 2):
        families = uniform_families(n, 12)
        for i in range(0, 13):
            want = 4 if i == 0 else (6 if i % 3 == 0 else 5)
            ok = ok and len(families[i]) == want
            for lab in generator_labels(i):
                ok = ok and {(p.source, p.target) for p in families[i][lab]} == {label_pair(lab)}
    # one family end to end
    r8 = uniform_families(1, 8)[8][Label(8, "R", None)]
    ok = ok and all(p.source == "e0" and p.target == "e2" for p in r8)
    report("11 uniform path families and recursion identities to degree 12", ok)

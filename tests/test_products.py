import itertools
from fractions import Fraction

import pytest

from quiverhh.cochains import CochainName
from quiverhh.linalg import axpy
from quiverhh.products import UnsupportedRightFactor, star_table
from quiverhh.uniform import generator_labels, label_index


def ctx(pipes, n):
    pipe = pipes[n]
    return pipe.hochschild, pipe.products, pipe.diagonal


def named(hc, m, *args):
    return hc.named(m, CochainName(*args))


# -- the published table as a lookup ---------------------------------------


def test_table_alpha_alpha():
    assert star_table(CochainName("alpha", 0, 1), CochainName("alpha", 0, 1), 2) == CochainName(
        "alpha", 0, 2
    )
    assert star_table(CochainName("alpha", 0, 1), CochainName("alpha", 0, 1), 1) is None
    assert star_table(CochainName("alpha", 0, 0), CochainName("alpha", 1, 0), 2) is None


def test_table_psi_and_beta_rows():
    assert star_table(CochainName("psi"), CochainName("beta"), 0) == CochainName("psi")
    assert star_table(CochainName("nu", 0), CochainName("beta"), 0) == CochainName("nu", 0)
    assert star_table(CochainName("alpha", 0, 0), CochainName("beta"), 0) is None
    assert star_table(CochainName("nu", 0), CochainName("psi"), 0) == CochainName("nu", 0)


def test_table_eta_and_nu1():
    assert star_table(CochainName("eta"), CochainName("alpha", 2, 0), 1) == CochainName("eta")
    assert star_table(CochainName("eta"), CochainName("alpha", 1, 0), 1) is None
    assert star_table(CochainName("nu", 1), CochainName("alpha", 2, 0), 1) == CochainName("nu", 1)
    assert star_table(CochainName("nu", 1), CochainName("alpha", 2, 1), 1) is None


def test_table_refuses_positive_degree_right_factor():
    with pytest.raises(UnsupportedRightFactor):
        star_table(CochainName("mu", 0, 0), CochainName("mu", 0, 0), 0)
    with pytest.raises(UnsupportedRightFactor):
        star_table(CochainName("eta"), CochainName("nu", 0), 0)


# -- computed products through the two-corner diagonal -----------------------


@pytest.mark.parametrize("n", [0, 1, 2])
def test_psi_beta(pipes, n):
    hc, pr, _ = ctx(pipes, n)
    for deg in (3, 6):
        psi = named(hc, deg, "psi")
        assert pr.star(psi, named(hc, 0, "beta")) == psi


@pytest.mark.parametrize("n", [0, 1, 2])
def test_nu0_rows(pipes, n):
    hc, pr, _ = ctx(pipes, n)
    nu0 = named(hc, 1, "nu", 0)
    assert pr.star(nu0, named(hc, 0, "beta")) == nu0
    for s in range(3):
        for t in range(n + 1):
            assert pr.star(nu0, named(hc, 0, "alpha", s, t)).is_zero()


@pytest.mark.parametrize("n", [0, 1, 2])
def test_mu_alpha_successor_index(pipes, n):
    hc, pr, _ = ctx(pipes, n)
    for i in range(3):
        for t in range(n + 1):
            mu = named(hc, 1, "mu", i, t)
            for s in range(3):
                for t2 in range(n + 1):
                    got = pr.star(mu, named(hc, 0, "alpha", s, t2))
                    if s == (i + 1) % 3 and t + t2 <= n:
                        assert got == named(hc, 1, "mu", i, t + t2)
                    else:
                        assert got.is_zero()


@pytest.mark.parametrize("n", [0, 1, 2])
def test_mu_mu_vanishes(pipes, n):
    hc, pr, _ = ctx(pipes, n)
    for i, j in itertools.product(range(3), repeat=2):
        assert pr.star(named(hc, 1, "mu", i, 0), named(hc, 1, "mu", j, 0)).is_zero()


@pytest.mark.parametrize("n", [1, 2])
def test_theta_beta_vanishes(pipes, n):
    hc, pr, _ = ctx(pipes, n)
    for i in range(3):
        for t in range(n):
            assert pr.star(named(hc, 2, "theta", i, t), named(hc, 0, "beta")).is_zero()


@pytest.mark.parametrize("n", [0, 1, 2])
def test_alpha_beta_vanishes(pipes, n):
    hc, pr, _ = ctx(pipes, n)
    for s in range(3):
        for t in range(n + 1):
            assert pr.star(named(hc, 0, "alpha", s, t), named(hc, 0, "beta")).is_zero()


@pytest.mark.parametrize("n", [0, 1, 2])
def test_eta_alpha(pipes, n):
    hc, pr, _ = ctx(pipes, n)
    eta = named(hc, 2, "eta")
    assert pr.star(eta, named(hc, 0, "alpha", 2, 0)) == eta
    # positive cycle powers overflow the longest surviving route exactly
    for t2 in range(1, n + 1):
        assert pr.star(eta, named(hc, 0, "alpha", 2, t2)).is_zero()


@pytest.mark.parametrize("n", [0, 1, 2])
def test_nu1_alpha(pipes, n):
    hc, pr, _ = ctx(pipes, n)
    nu1 = named(hc, 1, "nu", 1)
    assert pr.star(nu1, named(hc, 0, "alpha", 2, 0)) == nu1


@pytest.mark.parametrize("n", [0, 1, 2])
def test_alpha_alpha(pipes, n):
    hc, pr, _ = ctx(pipes, n)
    two = Fraction(2)
    for s, s2 in itertools.product(range(3), repeat=2):
        for t, t2 in itertools.product(range(n + 1), repeat=2):
            got = pr.star(named(hc, 0, "alpha", s, t), named(hc, 0, "alpha", s2, t2))
            if s != s2 or t + t2 > n:
                assert got.is_zero()
            else:
                # doubled diagonal at degree 0: twice the table entry
                assert got == hc.scale(two, named(hc, 0, "alpha", s, t + t2))


def test_beta_beta_doubles(pipes):
    hc, pr, _ = ctx(pipes, 0)
    beta = named(hc, 0, "beta")
    assert pr.star(beta, beta) == hc.scale(Fraction(2), beta)


def test_xyz_star_table(pipes):
    hc, pr, _ = ctx(pipes, 0)
    x, y, z = hc.x_cochain(), hc.y_cochain(), hc.z_cochain()
    two = Fraction(2)
    assert pr.star(x, x) == hc.scale(two, x)
    assert pr.star(x, y) == y and pr.star(y, x) == y
    assert pr.star(x, z) == z and pr.star(z, x) == z
    assert pr.star(y, y).is_zero()
    assert pr.star(y, z).is_zero() and pr.star(z, y).is_zero()
    assert pr.star(z, z).is_zero()  # table says x: documented deviation KD-2


def test_star_cup_relation(pipes, corner_homotopy):
    # cup through the corrected family differs from the two-corner product
    # by exactly the homotopy terms, per generator
    pipe = pipes[0]
    hc, pr, dm = ctx(pipes, 0)
    h = corner_homotopy(dm)
    fam = dm.corrected_family(dm.literal_family(), h)
    dm.verify_squares(fam, 4)
    f = hc.x_cochain()
    g = hc.y_cochain()
    got = pr.cup(f, g, fam)
    base = pr.star(f, g)
    m = f.degree + g.degree
    corr_images = {}
    for lab in generator_labels(m):
        gen = pipe.resolution.generator(lab)
        corr = dm.tc.differential(h.apply(m, gen))
        if m >= 1:
            axpy(corr, 1, h.apply(m - 1, pipe.resolution.apply_boundary(m, gen)), 0)
        corr_images[label_index(lab)] = corr
    # evaluate (f tensor g) on the correction exactly as the cup does
    from quiverhh.diagonal import ChainMapFamily

    corr_fam = ChainMapFamily(dm, 1, images={m: corr_images})
    expect = pr._product_on(corr_fam, f, g)
    assert got == hc.add(base, expect)


def test_cup_refuses_family_that_fails_verification(pipes, solved_families):
    hc, pr, dm = ctx(pipes, 0)
    from quiverhh.diagonal import ChainMapFamily

    fam = solved_families[0]
    images = {m: dict(imgs) for m, imgs in fam.images.items()}
    g = label_index(generator_labels(1)[0])
    images[1] = dict(images[1])
    images[1][g] = axpy({}, Fraction(3), images[1][g], 0)
    bogus = ChainMapFamily(dm, 1, images=images)
    with pytest.raises(ValueError):
        pr.cup(hc.x_cochain(), hc.y_cochain(), bogus)


@pytest.mark.parametrize("degree", [2, 7])
def test_cup_checks_every_square_up_to_one_above_the_product(pipes, solved_families, degree):
    # x cup z has degree 6; well defined on classes it needs the squares
    # at degrees 0..7, so an image broken below 6 or at 7 is refused
    hc, pr, dm = ctx(pipes, 0)
    from quiverhh.diagonal import ChainMapFamily

    fam = solved_families[0]
    images = {m: dict(fam.images[m]) for m in range(9)}
    g = label_index(generator_labels(degree)[0])
    images[degree][g] = axpy({}, Fraction(3), images[degree][g], 0)
    bogus = ChainMapFamily(dm, 1, images=images)
    x, z = hc.x_cochain(), hc.z_cochain()
    assert x.degree + z.degree == 6
    with pytest.raises(ValueError, match=f"at degree {degree}$"):
        pr.cup(x, z, bogus)


def test_star_computes_each_literal_image_once(monkeypatch):
    from quiverhh import Pipeline, RunConfig, reports
    from quiverhh.diagonal import DiagonalMaps

    labels = []
    apply = DiagonalMaps.delta_prime_apply

    def counting(self, elem):
        labels.extend(lab for lab, _, _ in elem)
        return apply(self, elem)

    monkeypatch.setattr(DiagonalMaps, "delta_prime_apply", counting)
    pipe = Pipeline(RunConfig(n=0, max_degree=12))
    pipe.products.table_comparison()
    reports.ring_star_report(pipe.hochschild, pipe.products)
    # the products reach degrees 0, 1, 2, 3, 6, 7 and 12: 37 generators
    assert len(labels) == len(set(labels)) == 37


def test_cup_unit_and_lift_independence(pipes, solved_families, corner_homotopy):
    hc, pr, dm = ctx(pipes, 0)
    fam = solved_families[0]
    x, y, z = hc.x_cochain(), hc.y_cochain(), hc.z_cochain()
    assert hc.classes_equal(pr.cup(x, y, fam), y)
    assert hc.classes_equal(pr.cup(y, x, fam), y)
    k = corner_homotopy(dm)
    fam2 = dm.corrected_family(fam, k)
    dm.verify_squares(fam2, 12)
    for f, g in itertools.product((x, y, z), repeat=2):
        assert hc.class_residual(pr.cup(f, g, fam)) == hc.class_residual(
            pr.cup(f, g, fam2)
        )


def test_table_comparison_rows(pipes):
    hc, pr, _ = ctx(pipes, 1)
    rows = [r for r in pr.table_comparison() if r["left_degree"] in (0, 1)]
    assert rows, "comparison produced no rows"
    deviating = {(r["left"], r["right"]) for r in rows if r["status"] == "deviation"}
    # the doubled diagonal makes every nonzero alpha*alpha entry deviate
    assert ("alpha_0^0", "alpha_0^0") in deviating
    # the successor-index products match the computation, so the published
    # equal-index mu rows deviate
    assert ("mu_0^0", "alpha_0^0") in deviating
    matches = {(r["left"], r["right"]) for r in rows if r["status"] == "match"}
    assert ("nu_0", "beta") in matches


@pytest.mark.parametrize("field", ["rationals", "gf:7"])
def test_match_named_reads_the_single_coordinate(field):
    from quiverhh import Pipeline, RunConfig

    for n in (0, 1, 2):
        pipe = Pipeline(RunConfig(n=n, field=field))
        hc, pr = pipe.hochschild, pipe.products
        for m in range(6):
            basis = hc.named_basis(m)
            for f in basis:
                for k in (1, 2, -1):
                    c = k % hc.field.p if hc.field.p else k
                    assert pr.match_named(hc.scale(k, f)) == (f.name, c)
            assert pr.match_named(hc.zero_cochain(m)) == (None, None)
            if len(basis) > 1:  # n = 0, degree 2 has eta alone
                assert pr.match_named(hc.add(basis[0], basis[1])) == (None, None)


def test_cup_associative_at_class_level(pipes, solved_families):
    hc, pr, dm = ctx(pipes, 0)
    fam = solved_families[0]
    x, y, z = hc.x_cochain(), hc.y_cochain(), hc.z_cochain()
    for f, g, h in [(x, y, z), (y, x, z), (y, z, x), (x, x, z), (y, y, z)]:
        lhs = pr.cup(pr.cup(f, g, fam), h, fam)
        rhs = pr.cup(f, pr.cup(g, h, fam), fam)
        assert hc.class_residual(lhs) == hc.class_residual(rhs)


def test_prime_field_pipeline_matches_rationals():
    from quiverhh import Pipeline, RunConfig

    pq = Pipeline(RunConfig(n=0, max_degree=8))
    pg = Pipeline(RunConfig(n=0, max_degree=8, field="gf:5"))
    # same cohomology dimensions and the same ring verdicts
    for j in range(8):
        assert pq.hochschild.hh_dimension(j) == pg.hochschild.hh_dimension(j)
    for pipe in (pq, pg):
        hc, pr = pipe.hochschild, pipe.products
        fam = pipe.diagonal.solved_family()
        pipe.diagonal.verify_squares(fam, 8)
        x, y = hc.x_cochain(), hc.y_cochain()
        assert hc.classes_equal(pr.cup(x, y, fam), y)
        assert hc.class_residual(pr.cup(y, y, fam)) == ()
        assert pr.star(x, x) == hc.scale(2, x)

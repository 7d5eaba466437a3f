import pathlib
import random
from fractions import Fraction

import pytest

from quiverhh.linalg import axpy
from quiverhh.quiver import trivial
from quiverhh.uniform import Label, generator_labels, label_index, label_pair

GOLDENS = pathlib.Path(__file__).parent / "goldens"


def dm_of(pipes, n):
    return pipes[n].diagonal


def tkey(g1, g2, l, m, r):
    return (str(g1), str(g2), str(l), str(m), str(r))


def as_strs(elem):
    return {tkey(*k): c for k, c in elem.items()}


def test_two_corner_image_doubles_at_degree_zero(pipes, decode):
    dm = dm_of(pipes, 0)
    img = dm.delta_prime_apply(dm.res.generator(Label(0, "R", None)))
    assert as_strs(decode(dm.tc, img)) == {("R0", "R0", "e0", "e0", "e0"): Fraction(2)}


def test_two_corner_image_degree_one(pipes, decode):
    dm = dm_of(pipes, 0)
    img = dm.delta_prime_apply(dm.res.generator(Label(1, "R", 0)))
    assert as_strs(decode(dm.tc, img)) == {
        ("R0", "R1_0", "e0", "e0", "e1"): Fraction(1),
        ("R1_0", "S0", "e0", "e1", "e1"): Fraction(1),
    }


def test_two_corner_image_degree_two(pipes, decode):
    dm = dm_of(pipes, 1)
    img = dm.delta_prime_apply(dm.res.generator(Label(2, "R", None)))
    assert as_strs(decode(dm.tc, img)) == {
        ("R0", "R2", "e0", "e0", "e2"): Fraction(1),
        ("R2", "U0", "e0", "e2", "e2"): Fraction(1),
    }


@pytest.mark.parametrize("n", [0, 1, 2])
def test_literal_squares_all_pass(pipes, n):
    dm = dm_of(pipes, n)
    fam = dm.literal_family()
    rows = dm.verify_squares(fam, 9)
    assert all(r["status"] == "pass" for r in rows)
    aug_rows = [r for r in rows if r["check"] == "augmentation-square"]
    assert aug_rows and fam.lift_factor == 2


def test_literal_squares_match_golden(pipes):
    import json

    golden = json.loads((GOLDENS / "squares_literal.json").read_text())
    for n in (0, 1, 2):
        dm = dm_of(pipes, n)
        fam = dm.literal_family()
        rows = dm.verify_squares(fam, 9)
        got = [
            {"id": f"square-{r['degree']}-{r['generator']}", "status": r["status"]}
            for r in rows
        ]
        assert got == golden[str(n)]


def test_default_homotopy_images(pipes, decode):
    dm = dm_of(pipes, 0)
    h = dm.default_homotopy()
    img = h.images[0][label_index(Label(0, "S", None))]
    assert as_strs(decode(dm.tc, img)) == {("S0", "S1", "e1", "e1", "e2"): Fraction(1)}
    star0 = h.star["e0"]
    assert as_strs(decode(dm.tc, star0)) == {("R0", "R0", "e0", "e0", "a0"): Fraction(-1)}
    starf = h.star["f1"]
    assert as_strs(decode(dm.tc, starf)) == {("T0", "T0", "f1", "f1", "b1"): Fraction(1)}


def test_detour_homotopy_follows_b_chain(pipes, decode):
    dm = dm_of(pipes, 0)
    h = dm.default_homotopy()
    img = h.images[0][label_index(Label(0, "T", None))]
    ((g1, g2, l, m, r),) = decode(dm.tc, img)
    assert label_pair(g2) == ("f1", "e2")


def test_mixed_pairs_have_no_homotopy_value(pipes):
    dm = dm_of(pipes, 1)
    h = dm.default_homotopy()
    assert h.images[3][label_index(Label(3, "S", 1))] == {}
    assert h.images[3][label_index(Label(3, "T", 0))] == {}


def test_zero_homotopy_formula_equals_literal():
    from quiverhh import Pipeline, RunConfig

    # the homotopy `--homotopy zero` runs with
    pipe = Pipeline(RunConfig(n=1, homotopy="zero"))
    dm = pipe.diagonal
    fam0 = dm.corrected_family(dm.literal_family(), pipe.homotopy_family())
    lit = dm.literal_family()
    assert all(fam0.images[m] == lit.images[m] for m in range(6))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_formula_family_chain_map_above_degree_zero(pipes, n):
    dm = dm_of(pipes, n)
    fam = dm.corrected_family(dm.literal_family(), dm.default_homotopy())
    rows = [r for r in dm.verify_squares(fam, 7) if r["degree"] >= 1]
    assert all(r["status"] == "pass" for r in rows)


def test_formula_family_with_random_corner_homotopies(pipes, tensor_triples):
    # any corner-respecting correction keeps every square commuting
    dm = dm_of(pipes, 0)
    rng = random.Random(11)
    tc = dm.tc
    for trial in range(3):
        images = {}
        for m in range(0, 6):
            imgs = {}
            for lab in generator_labels(m):
                o, t = label_pair(lab)
                basis = tc.algebra.basis
                cands = [
                    tr
                    for tr in tensor_triples(tc, m + 1)
                    if basis[tr[2]].source == o and basis[tr[4]].target == t
                ]
                pick = rng.sample(cands, k=min(2, len(cands)))
                g = label_index(lab)
                imgs[g] = {tr: Fraction(rng.randint(-2, 2)) for tr in pick}
                imgs[g] = {k: c for k, c in imgs[g].items() if c}
            images[m] = imgs
        from quiverhh.diagonal import HomotopyFamily

        h = HomotopyFamily(dm, images, {v: {} for v in ("e0", "e1", "f1", "e2")})
        fam = dm.corrected_family(dm.literal_family(), h)
        rows = [r for r in dm.verify_squares(fam, 5) if r["degree"] >= 1]
        assert all(r["status"] == "pass" for r in rows)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_solved_family_exact_and_lifts_identity(pipes, n, solved_families):
    dm = dm_of(pipes, n)
    fam = solved_families[n]
    top = pipes[n].config.max_degree
    rows = dm.verify_squares(fam, top)
    assert all(r["status"] == "pass" for r in rows)
    assert fam.lift_factor == 1
    for lab in generator_labels(0):
        got = dm.tc.augment(fam.images[0][label_index(lab)])
        assert got == dm.res.augment(dm.res.generator(lab))


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("side", ["right", "left"])
def test_contraction_is_a_contracting_homotopy(pipes, n, side, term_by_term):
    # boundary∘s + s∘boundary = id on every basis triple of degree <= 6,
    # with the augmentation section in place of s∘boundary at degree 0
    res = pipes[n].resolution
    s = getattr(pipes[n].diagonal, f"s_{side}")
    apply = term_by_term.apply
    for m in range(0, 7):
        for tr in res.triples(m):
            x = {tr: 1}
            if m == 0:
                back = s.section(tr[1], tr[2])
            else:
                back = apply(s, res.apply_boundary(m, x))
            assert axpy(res.apply_boundary(m + 1, apply(s, x)), 1, back, 0) == x, (m, tr)


@pytest.mark.parametrize("field", ["rationals", "gf:7"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_fused_kernels_equal_their_term_by_term_references(n, field, term_by_term):
    # in value and in order: the contraction tables, the family on each
    # generator's boundary (the extension), each lift (the exact solver,
    # here with the corner projection the lift no longer makes) and the
    # printed images table
    from quiverhh import Pipeline, RunConfig

    pipe = Pipeline(RunConfig(n=n, field=field, max_degree=9))
    dm, res, tc = pipe.diagonal, pipe.resolution, pipe.tensor
    for s in (dm.s_right, dm.s_left):
        for m in range(0, 8):
            assert s._solve(m) == term_by_term.table(s, m), (s.side, m)
    fam = dm.solved_family()
    for m in range(1, 10):
        for lab in generator_labels(m):
            g = label_index(lab)
            boundary = res.apply_boundary(m, res.generator(lab))
            want = term_by_term.extend(tc, fam.images[m - 1], boundary)
            assert list(fam.on_boundary[m][g].items()) == list(want.items()), (m, lab)
            o, t = label_pair(lab)
            x = term_by_term.solve_boundary(dm, fam.on_boundary[m][g])
            want = tc.act(res.vertex[o], x, res.vertex[t])
            assert list(fam.images[m][g].items()) == list(want.items()), (m, lab)
    rows = pipe.family_json(fam)
    assert [row["terms"] for row in rows] == [
        term_by_term.terms_json(pipe._names, fam.images[m][label_index(lab)], pipe.algebra.field)
        for m in range(10)
        for lab in generator_labels(m)
    ]


@pytest.mark.parametrize("field", ["rationals", "gf:5", "gf:7"])
def test_solved_images_lie_in_their_generators_corner(field):
    # the lift keeps its solution as it is: every term of a solved image
    # runs from the origin of its generator to its terminus
    from quiverhh import Pipeline, RunConfig

    for n in range(0, 7):
        pipe = Pipeline(RunConfig(n=n, field=field, max_degree=12))
        fam, basis = pipe.family("solved"), pipe.algebra.basis
        for m in range(0, 13):
            for lab in generator_labels(m):
                ends = {
                    (basis[left].source, basis[right].target)
                    for _, _, left, _, right in fam.images[m][label_index(lab)]
                }
                assert ends == {label_pair(lab)}, (n, m, lab)


@pytest.mark.parametrize("field", ["rationals", "gf:7"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_period_shared_contractions_match_direct_solves(n, field):
    # each table of degrees 7..13 equals the one solved from the table
    # below it, so by induction from degree 7 the shared tables are the
    # directly solved ones
    from quiverhh import Pipeline, RunConfig

    dm = Pipeline(RunConfig(n=n, field=field)).diagonal
    for s in (dm.s_right, dm.s_left):
        for m in range(7, 14):
            assert s.table[m] == s._solve(m), (s.side, m)
        assert all(s.table[m] is s.table[m - 6] for m in range(8, 14)), s.side


def test_a_degree_basis_is_listed_only_where_a_table_is_solved(monkeypatch, capsys):
    # a contraction table of degree m <= 7 lists the basis of degree m + 1
    # once, to decode its solutions; a table shared from m - 6 lists none,
    # and no other read lists a basis
    from quiverhh.cli import main
    from quiverhh.resolution import Resolution

    listed, triples = set(), Resolution.triples

    def tracked(self, m):
        listed.add(m)
        return triples(self, m)

    monkeypatch.setattr(Resolution, "triples", tracked)
    assert main(["diagonal", "--n", "1", "--max-degree", "20", "squares"]) == 0
    capsys.readouterr()
    assert listed and listed <= set(range(1, 9)), sorted(listed)


def test_solved_family_builds_one_solver_per_degree(monkeypatch):
    from quiverhh import Pipeline, RunConfig, linalg

    built = []
    init = linalg.LinearSolver.__init__

    def counting_init(self, a, p):
        built.append((a.rows, a.cols))
        init(self, a, p)

    monkeypatch.setattr(linalg.LinearSolver, "__init__", counting_init)
    d = 5
    pipe = Pipeline(RunConfig(n=1, max_degree=d))
    fam = pipe.diagonal.solved_family()
    assert built == []
    for m in range(d + 1):
        assert all(fam.images[m].values())
    res = pipe.resolution
    # images to degree d read the contractions to degree d - 1, and both
    # contractions share the boundary solver of degrees 1..d
    assert built == [(res.dim(m - 1), res.dim(m)) for m in range(1, d + 1)]


def test_solved_run_takes_one_differential_per_generator(monkeypatch):
    # the lift only solves, and verify_square takes the one d of each
    # generator's image: 64 generators in degrees 1..12
    from quiverhh import Pipeline, RunConfig
    from quiverhh.tensorcx import TensorComplex

    calls = []
    differential = TensorComplex.differential

    def counting(self, elem):
        calls.append(1)
        return differential(self, elem)

    monkeypatch.setattr(TensorComplex, "differential", counting)
    pipe = Pipeline(RunConfig(n=0, max_degree=12))
    dm = pipe.diagonal
    rows = dm.verify_squares(dm.solved_family(), 12)
    assert all(r["status"] == "pass" for r in rows)
    assert len(calls) == sum(len(generator_labels(m)) for m in range(1, 13)) == 64


def test_solved_run_evaluates_the_family_once_per_generator(monkeypatch):
    # the lift and verify_square read the family's value on each
    # generator's boundary from one table: 69 generators in degrees 1..13
    from quiverhh import Pipeline, RunConfig
    from quiverhh.diagonal import ChainMapFamily

    calls = []
    evaluate = ChainMapFamily.evaluate

    def counting(self, m, elem):
        calls.append(m)
        return evaluate(self, m, elem)

    monkeypatch.setattr(ChainMapFamily, "evaluate", counting)
    pipe = Pipeline(RunConfig(n=0, max_degree=13))
    dm, res = pipe.diagonal, pipe.resolution
    fam = dm.solved_family()
    rows = dm.verify_squares(fam, 13)
    assert all(r["status"] == "pass" for r in rows)
    assert len(calls) == sum(len(generator_labels(m)) for m in range(1, 14)) == 69
    # verifying left the table as the lift read it
    for m in range(1, 14):
        for lab in generator_labels(m):
            want = evaluate(fam, m - 1, res.apply_boundary(m, res.generator(lab)))
            assert want and fam.on_boundary[m][label_index(lab)] == want, (m, lab)


def test_degrees_fill_upward_without_recursion():
    import sys

    from quiverhh.uniform import Degrees

    filled = []

    def fill(m):
        filled.append(m)
        return table[m - 1] + 1 if m else 0

    table = Degrees(fill, upward=True)
    deep = sys.getrecursionlimit() + 500
    assert table[deep] == deep
    assert filled == list(range(deep + 1))
    table[deep]
    assert len(filled) == deep + 1
    # without `upward` only the degree read is filled
    lazy = Degrees(lambda m: m * m, upward=False)
    assert lazy[7] == 49 and list(lazy) == [7]


def test_family_json_prints_the_configured_degrees(pipes):
    # the family may hold more degrees than the run's max-degree
    pipe = pipes[1]
    fam = pipe.family("solved")
    fam.images[pipe.config.max_degree + 1]
    rows = pipe.family_json(fam)
    assert sorted({r["degree"] for r in rows}) == list(range(pipe.config.max_degree + 1))
    assert len(rows) == sum(len(generator_labels(m)) for m in range(10))


def test_solved_family_endpoint_conservation(pipes, solved_families):
    for n in (0, 1, 2):
        dm = dm_of(pipes, n)
        fam = solved_families[n]
        for m, imgs in fam.images.items():
            for g, img in imgs.items():
                o, t = label_pair(generator_labels(m)[g & 7])
                vertex = dm.res.vertex
                assert dm.tc.act(vertex[o], img, vertex[t]) == img


def test_solved_family_deterministic(pipes):
    from quiverhh import Pipeline, RunConfig

    a = Pipeline(RunConfig(n=1, max_degree=6)).diagonal.solved_family()
    b = Pipeline(RunConfig(n=1, max_degree=6)).diagonal.solved_family()
    assert [a.images[m] for m in range(7)] == [b.images[m] for m in range(7)]


def test_perturbed_family_differs_but_homotopic(
    pipes, solved_families, corner_homotopy, homotopy_solve
):
    dm = dm_of(pipes, 0)
    fam = solved_families[0]
    k = corner_homotopy(dm)
    fam2 = dm.corrected_family(fam, k)
    assert any(fam.images[m] != fam2.images[m] for m in fam.images)
    rows = dm.verify_squares(fam2, 12)
    assert all(r["status"] == "pass" for r in rows)
    h, bad = homotopy_solve(dm, fam, fam2, 12)
    assert bad is None and h is not None
    for m in range(0, 12):
        for lab in generator_labels(m):
            gen = dm.res.generator(lab)
            g = label_index(lab)
            lhs = axpy(dict(fam.images[m][g]), -1, fam2.images[m][g], 0)
            rhs = dm.tc.differential(h.apply(m, gen))
            if m >= 1:
                axpy(rhs, 1, h.apply(m - 1, dm.res.apply_boundary(m, gen)), 0)
            assert not axpy(lhs, -1, rhs, 0)


@pytest.mark.parametrize("n", [0, 1])
def test_corrected_family_agrees_with_the_extension_of_its_images(
    pipes, solved_families, corner_homotopy, act, n
):
    # a corrected family is evaluated as base + correction; over the solved
    # family and a corner homotopy with no vertex table that is the
    # bimodule-linear extension of its generator images
    from quiverhh.diagonal import ChainMapFamily
    from quiverhh.quiver import ARROWS, arrow

    dm = dm_of(pipes, n)
    res = dm.res
    fam = dm.corrected_family(solved_families[n], corner_homotopy(dm))
    extended = ChainMapFamily(dm, fam.lift_factor, images=fam.images)
    arrows = [arrow(tag) for tag in ARROWS]
    decorated = 0
    for m in range(1, 6):
        for lab in generator_labels(m):
            o, t = label_pair(lab)
            gen = res.generator(lab)
            for x in [trivial(o)] + [a for a in arrows if a.target == o]:
                for y in [trivial(t)] + [a for a in arrows if a.source == t]:
                    index = res.algebra.basis_index
                    elem = act(res, index[x], gen, index[y])
                    got = fam.evaluate(m, elem)
                    assert got == extended.evaluate(m, elem), (m, lab, x, y)
                    decorated += bool(got) and not x.is_vertex() and not y.is_vertex()
    assert decorated > 0


def test_equal_families_have_zero_homotopy(pipes, solved_families, homotopy_solve):
    dm = dm_of(pipes, 0)
    fam = solved_families[0]
    h, bad = homotopy_solve(dm, fam, fam, 6)
    assert bad is None
    assert all(not img for imgs in h.images.values() for img in imgs.values())


def test_mismatched_lifts_reported_inconsistent(pipes, solved_families, homotopy_solve):
    dm = dm_of(pipes, 0)
    fam = solved_families[0]
    lit = dm.literal_family()  # lifts twice the identity
    h, bad = homotopy_solve(dm, fam, lit, 4)
    assert h is None and bad == 0


def test_corrupted_family_fails_square(pipes, solved_families):
    dm = dm_of(pipes, 0)
    fam = solved_families[0]
    from quiverhh.diagonal import ChainMapFamily

    images = {m: dict(imgs) for m, imgs in fam.images.items()}
    g = label_index(generator_labels(2)[0])
    images[2] = dict(images[2])
    images[2][g] = axpy({}, Fraction(-1), images[2][g], 0)
    broken = ChainMapFamily(dm, 1, images=images)
    rows = dm.verify_square(broken, 2)
    assert any(r["status"] == "fail" for r in rows)


def test_homotopy_file_round_trip(tmp_path, pipes, homotopy_json):
    import json

    from quiverhh import Pipeline, RunConfig

    pipe = Pipeline(RunConfig(n=0, max_degree=4, delta_mode="formula"))
    h = pipe.diagonal.default_homotopy()
    p = tmp_path / "h.json"
    p.write_text(json.dumps(homotopy_json(pipe, h)))
    pipe2 = Pipeline(
        RunConfig(n=0, max_degree=4, delta_mode="formula", homotopy=f"file:{p}")
    )
    h2 = pipe2.homotopy_family()
    assert [h2.images[m] for m in range(5)] == [h.images[m] for m in range(5)]
    assert h2.star == h.star
    fam = pipe2.family()
    want = pipe.diagonal.corrected_family(pipe.diagonal.literal_family(), h)
    assert all(fam.images[m] == want.images[m] for m in range(5))

    # the report names the file by its content, and validates
    import hashlib
    from importlib import resources

    import jsonschema

    from quiverhh.cli import main

    out = tmp_path / "report.json"
    argv = ["diagonal", "--n", "0", "--max-degree", "4", "--delta-mode", "formula"]
    argv += ["--homotopy", f"file:{p}", "--output", "json", "--out-path", str(out), "squares"]
    main(argv)
    text = out.read_text()
    assert str(tmp_path) not in text
    payload = json.loads(text)
    digest = hashlib.sha256(p.read_bytes()).hexdigest()
    assert payload["config"]["homotopy"] == f"file:sha256:{digest}"
    with resources.files("quiverhh.goldens").joinpath("report.schema.json").open() as fh:
        jsonschema.validate(payload, json.load(fh))


def test_homotopy_file_coefficients_must_lie_in_the_field(tmp_path, capsys, homotopy_json):
    import json

    from quiverhh import Pipeline, RunConfig
    from quiverhh.cli import main

    pipe7 = Pipeline(RunConfig(n=0, max_degree=4, field="gf:7", delta_mode="formula"))
    p = tmp_path / "h7.json"
    p.write_text(json.dumps(homotopy_json(pipe7, pipe7.diagonal.default_homotopy())))
    assert "(mod 7)" in p.read_text()
    RunConfig(n=0, max_degree=4, field="gf:7", delta_mode="formula", homotopy=f"file:{p}")
    for field in ("gf:5", "rationals"):
        with pytest.raises(ValueError, match="does not lie in"):
            RunConfig(n=0, max_degree=4, field=field, delta_mode="formula", homotopy=f"file:{p}")
    bad_files = [f"file:{p}", f"file:{tmp_path / 'missing.json'}"]
    for homotopy in bad_files:
        argv = ["diagonal", "--n", "0", "--max-degree", "4", "--delta-mode", "formula"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--field", "gf:5", "--homotopy", homotopy, "squares"])
        assert exc.value.code == 2


def test_homotopy_file_over_q_reads_into_gf7(tmp_path, capsys, homotopy_json):
    # GF(p) reads an integer coefficient mod p, with or without " (mod p)":
    # a file written over Q (with -1 in its vertex table) and one written
    # over GF(7) give the same images
    import json

    from quiverhh import Pipeline, RunConfig
    from quiverhh.cli import main

    images = []
    for field in ("rationals", "gf:7"):
        pipe = Pipeline(RunConfig(n=0, max_degree=4, field=field, delta_mode="formula"))
        p = tmp_path / f"{field[:2]}.json"
        p.write_text(json.dumps(homotopy_json(pipe, pipe.diagonal.default_homotopy())))
        assert ("(mod 7)" in p.read_text()) == (field == "gf:7")
        argv = ["diagonal", "--n", "0", "--max-degree", "4", "--delta-mode", "formula"]
        argv += ["--field", "gf:7", "--homotopy", f"file:{p}", "--output", "json", "build"]
        assert main(argv) == 0
        images.append(json.loads(capsys.readouterr().out)["tables"]["images"])
    assert images[0] == images[1]
    assert any("6 (mod 7)" == t["coeff"] for row in images[0] for t in row["terms"])


@pytest.mark.parametrize(
    "field,value,reason",
    [
        ("generator", "", "is not a generator label of degree 0"),
        ("degree", "x", "is not an integer >= 0"),
        ("coeff", "1/0", "has a zero denominator"),
        ("coeff", "1e100000000", "is not spelled as an integer or a/b"),
        ("vertex", "e9", "unknown vertex 'e9'"),
        ("g1", "R3", "has bidegree 3+1; its row needs total degree 1"),
        ("left", "a1", "left path a1 does not end at e0, the origin of R0"),
        ("left", "a0*a1*a2*a0*a1*a2", "is not a basis path of the member n = 0"),
        ("left", "a2", "left path a2 does not start at e0, its row's origin"),
    ],
    ids=[
        "empty-generator",
        "degree-not-an-int",
        "zero-denominator",
        "coeff-with-an-exponent",
        "unknown-vertex",
        "bidegree-off-the-row",
        "left-path-off-the-origin",
        "left-path-not-in-the-basis",
        "left-path-off-the-row-origin",
    ],
)
def test_malformed_homotopy_file_is_a_usage_error(
    tmp_path, capsys, homotopy_json, field, value, reason
):
    import json

    from quiverhh import Pipeline, RunConfig
    from quiverhh.cli import main

    pipe = Pipeline(RunConfig(n=0, max_degree=4, delta_mode="formula"))
    data = homotopy_json(pipe, pipe.diagonal.default_homotopy())
    if field == "vertex":
        data["star"][0]["vertex"] = value
    elif field in ("coeff", "g1", "left"):
        data["images"][0]["terms"][0][field] = value
    else:
        data["images"][0][field] = value
    p = tmp_path / "h.json"
    p.write_text(json.dumps(data))
    argv = ["diagonal", "--n", "0", "--max-degree", "4", "--delta-mode", "formula"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--homotopy", f"file:{p}", "squares"])
    assert exc.value.code == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("p", [3, 7])
@pytest.mark.parametrize("n", [0, 1])
def test_gf_coefficients_are_reduced_ints(n, p):
    # over GF(p) every stored coefficient is a plain int in 1..p-1
    from quiverhh import Pipeline, RunConfig

    pipe = Pipeline(RunConfig(n=n, field=f"gf:{p}", max_degree=6, delta_mode="formula"))
    dm, res, hc = pipe.diagonal, pipe.resolution, pipe.hochschild
    coeffs = []
    for fam in (pipe.family("solved"), pipe.family("formula")):
        dm.verify_squares(fam, 6)
        coeffs += [c for m in range(7) for img in fam.images[m].values() for c in img.values()]
    for side in ("right", "left"):
        table = getattr(dm, f"s_{side}").table
        coeffs += [
            c for m in range(6) for images in table[m] for img in images for *_, c in img
        ]
    for m in range(8):
        ech = res.boundary_solver(m).echelon
        coeffs += [c for row in ech.rows.values() for c in row.values()]
        coeffs += [c for combo in ech.combos.values() for c in combo.values()]
        coeffs += [c for _, _, c in res.boundary_matrix(m).entries]
    pr, fam = pipe.products, pipe.family("solved")
    x, y, z = hc.x_cochain(), hc.y_cochain(), hc.z_cochain()
    cochains = [rep for m in range(7) for rep in hc.cohomology(m)[1]]
    cochains += [z, pr.star(x, x), pr.cup(y, x, fam)]
    coeffs += [c for f in cochains for c in f.vec.values()]
    bad = [c for c in coeffs if type(c) is not int or not 0 < c < p]
    assert coeffs and not bad, f"{len(bad)} of {len(coeffs)} coefficients: {bad[:3]}"

import json
import os
import sys

import pytest

from quiverhh.cli import COMMANDS, build_parser, main, parse_plain


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_resolution_verify_exits_zero(capsys):
    code, out = run(capsys, "resolution", "--n", "1", "--max-degree", "12", "verify")
    assert code == 0
    assert "complex-11  pass" in out
    assert "fail" not in out


def test_resolution_dims_prints_the_dimension_table(capsys):
    # the text of `dims` ends with the JSON's dimension table; `all` has none
    argv = ["resolution", "--n", "1", "--max-degree", "6"]
    code, out = run(capsys, *argv, "--output", "json", "dims")
    assert code == 0
    table = json.loads(out)["tables"]["dimensions"]
    want = [[row["degree"], row["dim"], row["generators"]] for row in table]
    code, out = run(capsys, *argv, "dims")
    assert code == 0
    lines = out.splitlines()
    assert lines[-len(want) - 1].split() == ["degree", "dim", "generators"]
    assert [[int(x) for x in line.split()] for line in lines[-len(want):]] == want
    code, all_out = run(capsys, *argv, "all")
    assert out.startswith(all_out) and "degree" not in all_out


def test_hochschild_dims(capsys):
    code, out = run(capsys, "hochschild", "--n", "0", "--max-degree", "8", "dims")
    assert code == 0
    lines = [l for l in out.splitlines() if l and l[0].isdigit() or l.startswith("     ")]
    # the four middle degrees vanish
    table = {
        int(parts[0]): int(parts[2])
        for parts in (l.split() for l in out.splitlines())
        if parts and parts[0].isdigit()
    }
    assert table[2] == table[3] == table[4] == table[5] == 0
    assert table[0] == table[1] == table[6] == table[7] == 1


def test_ring_reconciliation(capsys):
    code, out = run(capsys, "ring", "--n", "0")
    assert code == 0
    assert "| z | z | x | 0 | deviation |" in out


def test_diagonal_literal_matches_golden(capsys):
    code, out = run(
        capsys, "diagonal", "--n", "0", "--delta-mode", "literal", "--max-degree", "9", "squares"
    )
    assert code == 0


def _drop_a_term(monkeypatch, degree=None):
    """Make every literal image (of a label of the given degree, when one
    is given) lose its first term."""
    from quiverhh.diagonal import DiagonalMaps

    apply = DiagonalMaps.delta_prime_apply

    def faulty(self, elem):
        out = apply(self, elem)
        if out and (degree is None or any(g >> 3 == degree for g, _, _ in elem)):
            del out[next(iter(out))]
        return out

    monkeypatch.setattr(DiagonalMaps, "delta_prime_apply", faulty)


def test_diagonal_literal_fault_fails(capsys, monkeypatch):
    # literal squares are decided from the computed rows for every n
    _drop_a_term(monkeypatch)
    argv = ("diagonal", "--n", "3", "--delta-mode", "literal", "--max-degree", "4", "squares")
    code, out = run(capsys, *argv)
    assert code == 1
    assert "fail" in out


def test_diagonal_literal_fault_above_degree_9_fails(capsys, monkeypatch):
    # and for every degree
    _drop_a_term(monkeypatch, degree=10)
    argv = ("diagonal", "--n", "0", "--delta-mode", "literal", "--max-degree", "12", "squares")
    code, out = run(capsys, *argv)
    assert code == 1
    assert "square-10-" in out and "fail" in out


def test_unexplained_star_deviation_fails_the_ring(capsys, monkeypatch):
    # a wrong y*y is a deviation that neither known deviation explains
    from quiverhh.products import Products

    star = Products.star

    def wrong(self, f, g):
        if f.degree == g.degree == 1:
            return self.hc.named_basis(2)[0]
        return star(self, f, g)

    monkeypatch.setattr(Products, "star", wrong)
    code, out = run(capsys, "ring", "--n", "0")
    assert code == 1
    assert "ring-star-table  fail" in out
    assert "kd-ledger  pass" in out


def _double_degree_2_solutions(monkeypatch):
    # a wrong lift: solutions of right-hand sides of total degree 2, which
    # are the degree-3 images of the solved family, come out doubled
    from quiverhh.diagonal import DiagonalMaps
    from quiverhh.linalg import axpy

    solve = DiagonalMaps._solve_boundary

    def doubled(self, rhs, *rest):
        x = solve(self, rhs, *rest)
        if any((g1 >> 3) + (g2 >> 3) == 2 for g1, g2, *_ in rhs):
            return axpy({}, 2, x, self.field.p)
        return x

    monkeypatch.setattr(DiagonalMaps, "_solve_boundary", doubled)


def test_wrong_lift_fails_its_squares_and_refuses_cups(capsys, monkeypatch):
    # the squares the wrong lift breaks are failing rows of the report,
    # and a cup product through it is refused in one line
    _double_degree_2_solutions(monkeypatch)
    argv = ("diagonal", "--n", "0", "--max-degree", "6", "--output", "json", "squares")
    code, out = run(capsys, *argv)
    assert code == 1
    failing = [r for r in json.loads(out)["checks"] if r["status"] == "fail"]
    assert failing and {r["degree"] for r in failing} == {3}
    code = main(["ring", "--n", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "cup product refused" in captured.err and "at degree 3" in captured.err


def test_invalid_flags_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["resolution", "--n", "-3", "verify"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["resolution", "--field", "gf:2", "verify"])
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_configuration_error_uses_the_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["diagonal", "--n", "-3", "squares"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: quiverhh diagonal ")
    assert "quiverhh diagonal: error: n must be >= 0" in err


def test_deeply_nested_homotopy_file_is_a_usage_error(tmp_path, capsys):
    # the JSON parser recurses once per nesting level
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(SystemExit) as exc:
        main(["diagonal", "--delta-mode", "formula", "--homotopy", f"file:{path}", "squares"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: quiverhh diagonal ")
    assert "is nested too deeply to parse" in err


@pytest.mark.parametrize("raw", [b"", b"\xff\xfe\x00"], ids=["empty", "bad-utf16"])
def test_homotopy_file_that_is_not_json_is_named(tmp_path, capsys, raw):
    path = tmp_path / "homotopy.json"
    path.write_bytes(raw)
    with pytest.raises(SystemExit) as exc:
        main(["diagonal", "--delta-mode", "formula", "--homotopy", f"file:{path}", "squares"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: quiverhh diagonal ")
    assert f"homotopy file {str(path)!r} is not JSON: " in err


# one term of R0's image: R0 tensor R1_0, every path trivial
_R0_TERM = {
    "bidegree": [0, 1],
    "g1": "R0",
    "g2": "R1_0",
    "left": "e0",
    "middle": "e0",
    "right": "e1",
    "coeff": "1",
}


@pytest.mark.parametrize(
    "data,reason",
    [
        (
            {"images": [], "star": [{"vertex": "zz", "terms": []}]},
            "unknown vertex 'zz' in the homotopy star table",
        ),
        (
            {"images": [{"degree": -1, "generator": "R0", "terms": []}]},
            "homotopy degree -1 is not an integer >= 0",
        ),
        (
            {"images": [{"degree": 0, "generator": "R0", "terms": [_R0_TERM, _R0_TERM]}]},
            "homotopy term (R0, R1_0) with paths e0, e0, e1 is listed twice",
        ),
        (
            {
                "images": [
                    {"degree": 0, "generator": "R0", "terms": [_R0_TERM]},
                    {"degree": 0, "generator": "R0", "terms": []},
                ]
            },
            "homotopy generator R0 has two rows",
        ),
        (
            {"images": [], "star": [{"vertex": "e0", "terms": []}] * 2},
            "vertex 'e0' has two rows in the homotopy star table",
        ),
    ],
    ids=[
        "unknown-vertex",
        "negative-degree",
        "repeated-term",
        "repeated-generator",
        "repeated-vertex",
    ],
)
def test_homotopy_file_content_errors_name_the_file(tmp_path, capsys, data, reason):
    path = tmp_path / "homotopy.json"
    path.write_text(json.dumps(data))
    argv = ["diagonal", "--delta-mode", "formula", "--homotopy", f"file:{path}", "squares"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: quiverhh diagonal ")
    assert err.endswith(f"error: malformed homotopy file {str(path)!r}: {reason}\n")


def test_ring_off_n0_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ring", "--n", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: quiverhh ring ")
    assert "ring reconciliation is defined for --n 0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "0", "--max-degree", "2"],
        ["--n", "1", "--max-degree", "12", "--output", "json"],
        ["--n", "0", "--max-degree", "12", "--delta-mode", "formula"],
    ],
    ids=["max-degree-2", "n1", "formula"],
)
def test_cup_table_off_its_configuration_is_a_usage_error(capsys, argv):
    # an explicit cup-table action never prints a report without the table
    with pytest.raises(SystemExit) as exc:
        main(["hochschild", *argv, "cup-table"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: quiverhh hochschild ")
    assert "the cup table is defined for --n 0" in captured.err
    # `all` still leaves the table out
    code, out = run(capsys, "hochschild", *argv, "all")
    assert code == 0
    assert "cup_table" not in out


@pytest.mark.parametrize("where", ["missing-directory", "directory", "empty"])
def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys, where):
    # an empty path was once taken as no path, and the report went to stdout
    targets = {"missing-directory": tmp_path / "missing" / "out.json", "directory": tmp_path}
    target = targets.get(where, "")
    with pytest.raises(SystemExit) as exc:
        main(["algebra", "--n", "0", "--out-path", str(target)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: quiverhh algebra ")
    assert f"--out-path {str(target)!r}" in err


@pytest.mark.parametrize("spelling", ["gf:07", "gf:+7", "gf:0_7", "gf: 7", "gf:7 ", "gf:٧"])
def test_field_has_one_spelling(capsys, spelling):
    # each of these once ran GF(7) and echoed its own spelling into the report
    with pytest.raises(SystemExit) as exc:
        main(["algebra", "--n", "0", "--field", spelling])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: quiverhh algebra ")
    assert "plain decimal" in err


def _usage_pins():
    from pathlib import Path

    path = Path(__file__).resolve().parent / "goldens" / "cli_usage.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="argparse words and lays out its help and errors differently in other Python versions",
)
@pytest.mark.parametrize("pin", _usage_pins(), ids=lambda pin: " ".join(pin["argv"]) or "<empty>")
def test_help_and_usage_errors_are_pinned(capsys, monkeypatch, pin):
    # recorded with 80 columns from the argparse-only parser; the option
    # table and the plain parse must leave every byte of them as it was
    monkeypatch.setenv("COLUMNS", "80")
    try:
        status = main(list(pin["argv"]))
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    assert (status, captured.out, captured.err) == (pin["status"], pin["stdout"], pin["stderr"])


def test_json_report_deterministic_and_valid(tmp_path, capsys):
    import jsonschema
    from importlib import resources

    paths = []
    for i in (0, 1):
        p = tmp_path / f"report{i}.json"
        code, _ = run(
            capsys,
            "report",
            "--n",
            "0",
            "--max-degree",
            "6",
            "--output",
            "json",
            "--out-path",
            str(p),
        )
        assert code == 0
        paths.append(p)
    b0, b1 = paths[0].read_bytes(), paths[1].read_bytes()
    assert b0 == b1, "identical configuration must give byte-identical output"
    payload = json.loads(b0)
    with resources.files("quiverhh.goldens").joinpath("report.schema.json").open() as fh:
        schema = json.load(fh)
    jsonschema.validate(payload, schema)
    assert {d["id"] for d in payload["deviations"]} == {"KD-1", "KD-2"}


def test_gf_field_pipeline(capsys):
    code, out = run(
        capsys, "resolution", "--n", "0", "--field", "gf:5", "--max-degree", "6", "verify"
    )
    assert code == 0


def test_markdown_output(capsys):
    code, out = run(
        capsys, "hochschild", "--n", "1", "--max-degree", "4", "--output", "markdown", "dims"
    )
    assert code == 0
    assert out.startswith("| degree |")


def test_report_n0_solves_the_diagonal_once(tmp_path, capsys, monkeypatch):
    from quiverhh.diagonal import DiagonalMaps

    calls = []
    solve = DiagonalMaps.solved_family

    def counting(self, *args, **kwargs):
        calls.append(args)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(DiagonalMaps, "solved_family", counting)
    report_path, diagonal_path = tmp_path / "report.json", tmp_path / "diagonal.json"
    argv = ("--n", "0", "--max-degree", "9", "--output", "json", "--out-path")
    assert run(capsys, "report", *argv, str(report_path))[0] == 0
    assert len(calls) == 1
    # the ring reads the family beyond degree 9; the degree-9 section
    # printed from it equals a standalone degree-9 run
    assert run(capsys, "diagonal", *argv, str(diagonal_path))[0] == 0
    assert len(calls) == 2
    report = json.loads(report_path.read_text())
    alone = json.loads(diagonal_path.read_text())
    assert report["tables"]["images"] == alone["tables"]["images"]
    square_ids = {r["id"] for r in alone["checks"]}
    assert [r for r in report["checks"] if r["id"] in square_ids] == alone["checks"]


def test_report_n0_computes_the_cup_table_once(capsys, monkeypatch):
    from quiverhh import reports

    calls = []
    cup = reports.ring_cup_report

    def counting(*args):
        calls.append(args)
        return cup(*args)

    monkeypatch.setattr(reports, "ring_cup_report", counting)
    code, out = run(capsys, "report", "--n", "0", "--max-degree", "12", "--output", "json")
    assert code == 0
    assert len(calls) == 1
    tables = json.loads(out)["tables"]
    assert tables["cup_table"] == tables["ring"]["cup"]


def test_report_eliminates_each_boundary_matrix_once(capsys, monkeypatch):
    # the diagonal's solvers build the matrices out of degrees 1..7 once;
    # the exactness rows, certified on the top complex, build none
    from quiverhh.resolution import Resolution

    built = []
    build = Resolution._boundary_matrix

    def counting(self, m):
        built.append(m)
        return build(self, m)

    monkeypatch.setattr(Resolution, "_boundary_matrix", counting)
    code, _ = run(capsys, "report", "--n", "0", "--max-degree", "12", "--output", "json")
    assert code == 0
    assert sorted(built) == list(range(1, 8))


def test_hochschild_eliminates_each_coboundary_column_once(capsys, monkeypatch):
    # one tracked elimination per coboundary map gives both its kernel,
    # the cocycles, and its echelon, the coboundaries
    from collections import Counter

    from quiverhh.cochains import HochschildComplex
    from quiverhh.linalg import SparseEchelon

    built, passed = [], []
    build, eliminate = HochschildComplex._coboundary_columns_at, SparseEchelon.eliminate

    def building(self, m):
        built.append(build(self, m))
        return built[-1]

    def eliminating(self, items, *rest, **kwargs):
        items = list(items)
        passed.extend(vec for _, vec in items)  # kept, so that no id is reused
        return eliminate(self, items, *rest, **kwargs)

    monkeypatch.setattr(HochschildComplex, "_coboundary_columns_at", building)
    monkeypatch.setattr(SparseEchelon, "eliminate", eliminating)
    code, _ = run(capsys, "hochschild", "--n", "8", "--max-degree", "12", "--output", "json", "dims")
    assert code == 0
    times = Counter(map(id, passed))
    columns = [col for cols in built for col in cols]
    assert len(columns) > 100
    assert [times[id(col)] for col in columns] == [1] * len(columns)


def test_report_solves_the_diagonal_in_fused_passes(capsys, monkeypatch):
    # the extension reads the product rows itself (no `act` per boundary
    # term), a contraction's defect reads the shape and the table below it
    # (no boundary applied per generator), the family's value on a
    # generator's boundary reads the shape (the 128 calls left are
    # `verify_complex` and the worked values), and the solves stay as they
    # were; the term-by-term forms made 271 `act` and 381 `apply_boundary`
    # calls
    from collections import Counter

    from quiverhh.linalg import LinearSolver
    from quiverhh.resolution import Resolution
    from quiverhh.tensorcx import TensorComplex

    calls = Counter()

    def counting(name, method):
        def call(*args):
            calls[name] += 1
            return method(*args)

        return call

    for cls, name in ((TensorComplex, "act"), (Resolution, "apply_boundary"), (LinearSolver, "solve")):
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    code, _ = run(capsys, "report", "--n", "0", "--max-degree", "12", "--output", "json")
    assert code == 0
    assert calls == {"act": 13, "apply_boundary": 128, "solve": 204}


def test_cli_import_loads_no_dataclasses():
    # importing dataclasses (and inspect with it) is a cost of every start
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import quiverhh.cli; "
        "print('dataclasses' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(src)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_plain_runs_load_no_parser_or_package_data_modules():
    # argparse and gettext cost every start, and its first message imports
    # locale; finding package data imports the `goldens` namespace package
    import subprocess
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import contextlib, io, json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import quiverhh.cli\n"
        "loaded = lambda names: [m for m in names if m in sys.modules]\n"
        "seen = [loaded(['argparse', 'gettext'])]\n"
        "argv = ['resolution', '--n', '0', '--max-degree', '2', '--output', 'json', 'exactness']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert quiverhh.cli.main(argv) == 0\n"
        "seen.append(loaded(['argparse', 'locale']))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert quiverhh.cli.main(['ring', '--n', '0', '--max-degree', '12']) == 0\n"
        "seen.append(loaded(['quiverhh.goldens']))\n"
        "print(json.dumps(seen))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(src)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    after_import, after_resolution, after_ring = json.loads(proc.stdout)
    assert after_import == []
    assert after_resolution == []
    assert after_ring == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("target", ["out-path", "stdout"])
def test_unwritable_report_is_one_line_and_exit_2(target):
    # the write fails after the whole computation; it once ended in an
    # OSError traceback with exit status 1
    import subprocess
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    argv = [sys.executable, "-m", "quiverhh.cli"]
    if target == "out-path":
        argv += ["algebra", "--n", "0", "--out-path", "/dev/full"]
        name = "/dev/full"
    else:
        argv += ["report", "--n", "0", "--max-degree", "12", "--output", "json"]
        name = "standard output"
    env = dict(os.environ, PYTHONPATH=str(src))
    with open("/dev/full", "w") as full:
        stdout = full if target == "stdout" else subprocess.PIPE
        proc = subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=300)
    assert proc.returncode == 2
    assert proc.stderr == f"quiverhh: cannot write the report to {name}: No space left on device\n"
    assert not proc.stdout


def _argv_cases(command, actions, rng):
    """Command lines for `command`, plain ones and every kind argparse
    must see: shuffled, repeated and missing options, one, two or no
    actions anywhere, odd int spellings and odd tokens."""
    values = {
        "--n": ["0", "3", "05", " 5", "+5", "\u0665", "5_0", "-1", "", "-", "--n=5", "x", "1.5"],
        "--max-degree": ["12", "2", "0", "\u0663", " 7 ", "-1", "", "-", "--max-degree=5"],
        "--field": ["rationals", "gf:7", "QQ", "", "-", "all", "--n"],
        "--delta-mode": ["solved", "literal", "formula", "bogus", "", "-"],
        "--homotopy": ["default", "zero", "file:x", "all", "-x", "- x"],
        "--output": ["json", "text", "markdown", "yaml", "-", "json "],
        "--out-path": ["r.json", "", "-", "all", "--output"],
    }
    odd = ["--max", "--out", "--max-deg", "-h", "--help", "--", "--bogus", "-n", "--n=5",
           "--output=json", "-1", "", "-", "bogus", "report", "cup-table"]
    other = [a for _, acts in COMMANDS_ACTIONS for a in acts if a not in actions]
    cases = [[command], [command, "--n"], [command, actions[-1], actions[0]]]
    for action in actions:
        cases.append([command, action])
        cases.append([command, "--n", "2", action, "--output", "json"])
    for _ in range(300):
        opts = rng.sample(sorted(values), rng.randint(0, len(values)))
        opts += rng.choices(sorted(values), k=rng.randint(0, 2))  # repeated options
        rng.shuffle(opts)
        tokens = []
        for opt in opts:
            tokens += [opt, rng.choice(values[opt][:3])]
        if tokens and rng.random() < 0.3:
            spot = rng.randrange(1, len(tokens), 2)
            tokens[spot] = rng.choice(values[tokens[spot - 1]])
        for _ in range(rng.choice([0, 1, 1, 1, 1, 2])):
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(actions))
        roll = rng.random()
        if roll < 0.15:
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(odd))
        elif roll < 0.2 and other:
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(other))
        elif roll < 0.25 and tokens and tokens[-1] not in actions:
            tokens.pop()  # the last option loses its value
        cases.append([command] + tokens)
    return cases


COMMANDS_ACTIONS = [(name, actions) for name, (_, actions) in COMMANDS.items()]


@pytest.mark.parametrize("command,actions", COMMANDS_ACTIONS, ids=[c for c, _ in COMMANDS_ACTIONS])
def test_plain_parse_agrees_with_argparse_or_declines(capsys, command, actions):
    import random

    parser = build_parser()
    taken = declined = 0
    for argv in _argv_cases(command, actions, random.Random(command)):
        plain = parse_plain(argv)
        if plain is None:
            declined += 1
            continue
        taken += 1
        try:
            reference = vars(parser.parse_args(argv))
        except SystemExit:
            pytest.fail(f"plain parse took {argv!r}, which argparse refuses: {capsys.readouterr().err}")
        del reference["usage_error"]
        assert plain == reference, argv
    # both sides of the choice are exercised
    assert taken >= 75 and declined >= 75, (taken, declined)


def test_the_benchmark_command_lines_are_plain(monkeypatch):
    import random
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import WORKLOADS

    for name in ("exactness-n5", "ring-n0"):
        w = WORKLOADS[name]
        for seed in range(24):
            args = parse_plain(w.argv(random.Random(seed)))
            assert args is not None
            assert (args["command"], args["n"], args["max_degree"], args["field"], args["output"],
                    args["action"]) == (w.command, w.n, w.max_degree, w.field, "json", w.action)


@pytest.mark.parametrize("output", ["json", "text", "markdown"])
def test_report_is_serialised_once(capsys, monkeypatch, output):
    from quiverhh import reports

    calls = []
    dumps = reports.canonical_json

    def counting(data):
        calls.append(data)
        return dumps(data)

    monkeypatch.setattr(reports, "canonical_json", counting)
    code, out = run(capsys, "report", "--n", "0", "--max-degree", "3", "--output", output)
    assert code == 0
    assert len(calls) == 1
    assert out == dumps(calls[0])
    # a report is a JSON run whatever the output mode
    assert out == run(capsys, "report", "--n", "0", "--max-degree", "3", "--output", "json")[1]


def test_perfbench_tracer_wraps_current_names(tmp_path):
    # perfbench/tracing.py wraps package attributes by name, so renaming
    # one breaks `perfbench/run.py --trace 1`; it patches the process, so
    # it runs in a child
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    script = (
        "import json, sys\n"
        "sys.path[:0] = sys.argv[1:3]\n"
        "import quiverhh.cli, tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer)\n"
        "argv = ['report', '--n', '0', '--max-degree', '3', '--output', 'json']\n"
        "main = tracer.wrap(tracing.ROOT, quiverhh.cli.main)\n"
        "code = main(argv + ['--out-path', sys.argv[3]])\n"
        "print(json.dumps({'code': code, 'metrics': tracer.layer_metrics()}))\n"
    )
    traced = tmp_path / "traced.json"
    argv = [sys.executable, "-c", script, str(root / "src"), str(root / "perfbench"), str(traced)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    # the report reaches every layer the tracer names
    assert [k for k, v in result["metrics"].items() if not v] == []
    plain = tmp_path / "plain.json"
    main(["report", "--n", "0", "--max-degree", "3", "--output", "json", "--out-path", str(plain)])
    assert traced.read_bytes() == plain.read_bytes()


# sha256 of the `--output json` stdout of cheap commands, pinned so that a
# refactor that must leave every report byte-identical is checked mechanically
PINNED_REPORTS = [
    ("report --n 0 --max-degree 9",
     "9041407e0a284249abe7674344b55127e7217fb63de94502f52adf2de3e79246"),
    ("report --n 1 --field gf:7 --max-degree 6",
     "a18b0cfabdac65970323cac55f459e24459dd17359365fa10c8d6349f32ff6b7"),
    ("diagonal --n 1 --max-degree 6 build",
     "79fa256167bc962ebd8e41009cbf25584d0cfc236ff3372eea3f3b8c05dcef31"),
    ("diagonal --n 0 --delta-mode formula --max-degree 6 build",
     "55b4c970b178767dc4b9a4ab7a2e7d884bf132b6f60a7c6058d40da3b2db9455"),
    ("diagonal --n 0 --delta-mode formula --max-degree 6 --homotopy zero build",
     "b5697d6dc1cf72d5fe9ed4e750d5ff1b545023d30d4897be5dfc401c1810fc27"),
    ("diagonal --n 0 --delta-mode literal --max-degree 9 all",
     "aa25258dc224b05fabfcc15acdcabfd67621e18c8d9604f733787025d50ebc54"),
    ("hochschild --n 2 --max-degree 8 all",
     "c3fe229a92e91e679768bb49712ed67c2e43a2b07b5a3bd58acb53478fa302d7"),
    ("hochschild --n 0 --max-degree 12 cup-table",
     "2f8558d248d6b7867d8e9dd67bd8c0637f4b6e35c8aec8cb9e436936ee7cdc4e"),
    ("diagonal --n 2 --max-degree 8 build",
     "5039c6cea6981e1bb7067dc721681d5e4bd1a386cc62418181f0fdc81240e425"),
    ("resolution --n 5 --max-degree 12 exactness",
     "4ade2e6b971f8d887849c1bf1483eabc135f649c4d9416d1f0a87ec5711aed09"),
    # its cochain eliminations meet non-unit pivots
    ("hochschild --n 3 --max-degree 12 dims",
     "a394066dd82cd19ca6796524f0e43275f58c4f8c9081487d8042ea98d1f97243"),
    ("report --n 2 --field gf:5 --max-degree 9",
     "86f20f574bb8336cf32ee56a0d4556c661e87830219bec3e7a6d7489039f44b5"),
    # over GF(3) the literal lift factor 2 is -1
    ("report --n 0 --field gf:3 --max-degree 12",
     "01d0d929acdb5535711e659f09452d531d64db2ce2b6e64e60919405bfef45b1"),
    ("diagonal --n 1 --field gf:7 --delta-mode formula --max-degree 6 build",
     "12830896daeae5b97372881b07a4959daa8f4f043c3ce1a88ed38eee48215ece"),
    ("diagonal --n 2 --field gf:11 --max-degree 8 build",
     "abfb7b9dbe69666aea963e0491d549833ae98b7bcd4fb2979dd4d43cb81fc407"),
    # literal mode beyond n = 0..2 and beyond degree 9
    ("diagonal --n 3 --delta-mode literal --max-degree 10 squares",
     "fbfef9e080cf789079d9dce9610c42d404b0c8a6d2af66ab7b2720fdc1332bc3"),
    ("report --n 0 --delta-mode literal --max-degree 12",
     "305e256db54b3d013864fe68b4d5abda5c9da66aa5b5b57e45fa207ba40493fd"),
    # degrees past one period: 14 repeats 8, which repeats 2
    ("resolution --n 3 --max-degree 14 all",
     "dd99193c585483d75151ae24488495bf9b721cda30d811be5f9bbce1006a7eb8"),
    ("resolution --n 2 --field gf:7 --max-degree 13 all",
     "fb77c8e5ef5e66e6b320db2919dfdd6b8ba69247852fe068c0b61f2f9e2af294"),
    # the contractions solve against the boundary solvers of degrees 8..14
    ("diagonal --n 1 --max-degree 13 squares",
     "0d9b7bddfd9c42424056bf9e4602b4caa38ce4cfb6b8dcfb453533bb1953baab"),
    # solved images past one period, which the contraction tables of
    # degrees 8..13 produce
    ("diagonal --n 1 --max-degree 14 build",
     "931705e44a04375891343db0ec24ca220864685627e58473df8d47a76dd89f98"),
    # the solver echelons at the largest n of any pin
    ("diagonal --n 5 --max-degree 12 squares",
     "09a767b1d2ab1dbf332f719fa09333baed3fb1f3b8e0ffdd77b85c49bc4ae536"),
    ("diagonal --n 2 --field gf:7 --max-degree 14 build",
     "1a57dc1093bb22503cd9da229a1d41baffc1450edd079ef02c59ed7215bd1cde"),
    ("diagonal --n 3 --max-degree 13 build",
     "b467cebb54a4b7079cfcf7fb62ffbb08d780c960d4f73def37d9734b6e23e9e7"),
    # the `ring-n0` benchmark report, a second member through the whole
    # report, and cohomology past one period over GF(7)
    ("report --n 0 --max-degree 12",
     "906a5bee5889fc5a5b40c5eac76a9801d9d14874933020795669b2eefcdc02e2"),
    ("report --n 3 --max-degree 12",
     "9f36ba10e8e0f747f1e69a87eaac94294fd48ea4609c38e45914dd64822b9e18"),
    ("hochschild --n 1 --field gf:7 --max-degree 13 all",
     "03b709cb130bd376494b3ee45696d001016c28ffec594f32ffef7d3b3cafc797"),
    # the GF(p) boundary matrices, ranks and kernels at larger n
    ("resolution --n 7 --field gf:7 --max-degree 14 all",
     "5a19d093dd0f3079936ffdffcab8a2c609396c6a1ac085dbf62a2533570503e8"),
    ("hochschild --n 4 --field gf:5 --max-degree 13 all",
     "ddd42fe9dc0fad44e325e6091ddf2aed782ca4d0fa2551323a53d418a2ad4f7b"),
    # fields where HH^3 and HH^4 grow to n + 1: the coboundary echelons
    # of those degrees lose rank
    ("hochschild --n 1 --field gf:5 --max-degree 14 all",
     "76cfbc328d24b166d9298d8d53554e78208c40f3f4f435e1715e5b78a30f9c0d"),
    ("hochschild --n 3 --field gf:11 --max-degree 14 dims",
     "16244825ca9fb496a8640f02a66674dd4fa217c93073fbeb4254d2903abefe82"),
    # 3080 star products, each matched against the named basis
    ("hochschild --n 8 --max-degree 12 all",
     "06c1bf938fdaf886be5e7a74c272bad935140f1c334d0da45d4492756557f00b"),
    ("report --n 1 --max-degree 12",
     "8a9b4a6d657421e33c9c6e5a6e051ab9fff100b996f5013a4c8cd57ca989cc77"),
    # the rewriting basis and the oracle's raw path list
    ("algebra --n 4 all",
     "0bb289dc44fd1fc500383c9d7b30255038180300cc4ca18448b139875c17d9fd"),
    ("algebra --n 2 --field gf:7 all",
     "50f9a2b9bdc1d2465f43257a45ce7d6aef2e61a6edff749ca6563465745fcafc"),
]


@pytest.mark.parametrize("command,digest", PINNED_REPORTS, ids=[c for c, _ in PINNED_REPORTS])
def test_json_report_digest_is_pinned(capsys, command, digest):
    import hashlib

    code, out = run(capsys, *command.split(), "--output", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _without_bidegree(data):
    if isinstance(data, dict):
        return {k: _without_bidegree(v) for k, v in data.items() if k != "bidegree"}
    if isinstance(data, list):
        return [_without_bidegree(v) for v in data]
    return data


def test_file_homotopy_report_digest_is_pinned(tmp_path, capsys, homotopy_json):
    # the report names the file by the sha256 of its bytes, so the file is
    # written without the derived `bidegree` keys and with sorted keys
    import hashlib

    from quiverhh.pipeline import Pipeline, RunConfig

    pipe = Pipeline(RunConfig(n=1, max_degree=6))
    data = homotopy_json(pipe, pipe.diagonal.default_homotopy())
    path = tmp_path / "homotopy.json"
    path.write_text(json.dumps(_without_bidegree(data), sort_keys=True))
    command = "diagonal --n 1 --delta-mode formula --max-degree 6 all --output json"
    code, out = run(capsys, *command.split(), "--homotopy", f"file:{path}")
    assert code == 0
    digest = "3f6d53cbf2bafc4128d5e15ef947c3ee3cc936bf63b3ee15a59dd8d202865924"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("field", ["rationals", "gf:7"])
def test_zero_homotopy_is_a_homotopy_file_with_no_rows(tmp_path, capsys, field):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"images": [], "star": []}))
    command = f"diagonal --n 1 --field {field} --delta-mode formula --max-degree 6 --output json all"
    code, out = run(capsys, *command.split(), "--homotopy", "zero")
    file_code, file_out = run(capsys, *command.split(), "--homotopy", f"file:{path}")
    zero, empty = json.loads(out), json.loads(file_out)
    assert code == file_code
    # only the homotopy named in the config differs
    assert zero["config"].pop("homotopy") == "zero"
    assert empty["config"].pop("homotopy").startswith("file:sha256:")
    assert zero == empty
    assert set(zero) == {"config", "checks", "tables", "deviations"}


# sha256 of the text and markdown stdout of cheap commands: text output
# prints a check row's extra keys in the order the row was built, which
# the JSON pins above do not see
PINNED_TEXT_REPORTS = [
    ("resolution --n 2 --max-degree 9 verify",
     "ca15d055d6b7e333b59e6de570149313f870f3d4ec0bacecccf1e23c997ecfad"),
    ("resolution --n 2 --max-degree 9 exactness",
     "9548d7ee338cdf0f480b0436e1151d9aad8255d9f066024b5996d39dfd3d098b"),
    ("diagonal --n 0 --delta-mode formula --max-degree 6 all",
     "de9f4230b3655417fe9debf6024ab3b29e6150255680abdf19cb60e1923174ed"),
    ("algebra --n 1 all",
     "18d1200b036daebb3110cba7d2f6231ed8f32cfbb415b3e4dfb17ccbb12b1bbb"),
    ("hochschild --n 0 --max-degree 12 all",
     "cddd210f379e3cead1c527cf82c7336e7033ff4b7f36ada0fe317b856e94d7f1"),
    ("ring --n 0",
     "3d4073de1440bc195fb41bd0e0926b38c54a7ec0b324b2545f14c87d610c3b75"),
    ("resolution --n 2 --max-degree 9 --output markdown",
     "cb5535b57f3fb04c7c0ea98b7105f7cf9603b35f7dd2aa70645f65cad9942ca3"),
    ("hochschild --n 0 --max-degree 12 --output markdown",
     "5fa097459dbb35588629a58f779fa0118b7932427aa3095ed5a067c0b2a22ebf"),
    ("ring --n 0 --field gf:5",
     "3d4073de1440bc195fb41bd0e0926b38c54a7ec0b324b2545f14c87d610c3b75"),
]


@pytest.mark.parametrize(
    "command,digest", PINNED_TEXT_REPORTS, ids=[c for c, _ in PINNED_TEXT_REPORTS]
)
def test_text_report_digest_is_pinned(capsys, command, digest):
    import hashlib

    code, out = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_text_hochschild_computes_no_star_table(capsys, monkeypatch):
    import hashlib

    from quiverhh.products import Products

    def refuse(self):
        raise AssertionError("text output prints no star table")

    monkeypatch.setattr(Products, "table_comparison", refuse)
    command = "hochschild --n 0 --max-degree 12 all"
    code, out = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == dict(PINNED_TEXT_REPORTS)[command]
    # the patch is live: the output modes that print the table still ask for it
    for argv in (["--output", "markdown"], ["--output", "json"]):
        with pytest.raises(AssertionError, match="no star table"):
            main(command.split() + argv)
    with pytest.raises(AssertionError, match="no star table"):
        main(["report", "--n", "1", "--max-degree", "3"])


def test_text_star_table_prints_the_star_table(capsys):
    # the text of `star-table` is that of `dims` followed by the star table
    # that markdown prints
    argv = ["hochschild", "--n", "0", "--max-degree", "12"]
    code, dims = run(capsys, *argv, "dims")
    assert code == 0
    code, star = run(capsys, *argv, "star-table")
    assert code == 0
    code, markdown = run(capsys, *argv, "--output", "markdown", "star-table")
    assert code == 0
    table = markdown[markdown.index("| left | right |"):]
    assert table.count("\n") > 40
    assert star == dims + table


def test_run_config_checks_every_declared_choice_and_the_parser_agrees():
    from quiverhh.pipeline import OPTIONS, RunConfig

    with pytest.raises(ValueError, match="unknown output 'xml'"):
        RunConfig(output="xml")
    with pytest.raises(ValueError, match="unknown delta mode 'x'"):
        RunConfig(delta_mode="x")
    with pytest.raises(TypeError):
        RunConfig(bogus=1)
    for _, dest, _, _, choices, _ in OPTIONS:
        for choice in choices or ():
            assert getattr(RunConfig(**{dest: choice}), dest) == choice
    defaults = RunConfig()
    dests = [dest for _, dest, *_ in OPTIONS]
    parser = build_parser()
    for command in COMMANDS:
        args = vars(parser.parse_args([command]))
        options = {k: v for k, v in args.items() if k not in ("command", "action", "usage_error")}
        assert sorted(options) == sorted(dests)
        assert options == {dest: getattr(defaults, dest) for dest in dests}
    # a report holds what was computed, not where it was written
    assert list(defaults.as_dict()) == ["n", "field", "max_degree", "delta_mode", "homotopy"]


def test_run_config_refuses_a_value_of_the_wrong_type():
    # a bool reads as an int and a float reaches range(); the CLI parsers
    # convert every value, so only a direct construction can pass these
    from quiverhh.pipeline import RunConfig

    with pytest.raises(TypeError, match="n must be int"):
        RunConfig(n=True)
    with pytest.raises(TypeError, match="max degree must be int"):
        RunConfig(max_degree=3.0)
    with pytest.raises(TypeError, match="n must be int"):
        RunConfig(n=1.5)
    with pytest.raises(TypeError, match="field must be str"):
        RunConfig(field=None)
    assert RunConfig(out_path=None).out_path is None


def test_hochschild_computes_the_cup_table_only_when_the_json_is_printed(capsys, monkeypatch):
    from quiverhh import reports

    calls = []
    cup = reports.ring_cup_report

    def counting(*args):
        calls.append(args)
        return cup(*args)

    monkeypatch.setattr(reports, "ring_cup_report", counting)
    for output, wanted in (("text", 0), ("markdown", 0), ("json", 1)):
        for action in ("cup-table", "all"):
            calls.clear()
            argv = ["hochschild", "--n", "0", "--max-degree", "12", "--output", output, action]
            assert run(capsys, *argv)[0] == 0
            assert len(calls) == wanted, (output, action)


# a cheap configuration at which every action of each command runs
CHEAP_OPTIONS = {
    "algebra": ["--n", "1"],
    "resolution": ["--n", "1", "--max-degree", "6"],
    "diagonal": ["--n", "1", "--max-degree", "6"],
    "hochschild": ["--n", "0", "--max-degree", "12"],
    "ring": ["--n", "0", "--max-degree", "12"],
    "report": ["--n", "0", "--max-degree", "12"],
}


def _outcome_digest(capsys, argv):
    """The sha256 of the exit status, stdout and stderr of `main(argv)`."""
    import hashlib

    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    return hashlib.sha256(json.dumps([status, captured.out, captured.err]).encode()).hexdigest()


# `_outcome_digest` of every (command, action) pair in text and markdown,
# at `CHEAP_OPTIONS`: every run exits 0 with nothing on stderr
PINNED_OUTCOMES = {
    "algebra --n 1 --output text all":
        "b7718ce70ebf2bc19cf5ba856e1303f4d9f0e947fcacb09c050c6794c43e881c",
    "algebra --n 1 --output text basis":
        "bf80845478ce3d95cb50e1866ab5ef3e0f21726d2d2a3ca0dfab8e344a21f611",
    "algebra --n 1 --output text dims":
        "bb02f4e82ea8f7692288edd4aa9567974b4d96f1d72007d4aae2640b22afde02",
    "algebra --n 1 --output text corners":
        "bb02f4e82ea8f7692288edd4aa9567974b4d96f1d72007d4aae2640b22afde02",
    "resolution --n 1 --max-degree 6 --output text all":
        "14697e33460563ad2ce54103c45065c8566d5f03fd4b046b895c7bc2c29c127c",
    "resolution --n 1 --max-degree 6 --output text verify":
        "7790f2cf3a35bc83dc79be8e10890fb0fb8f8f41b23526a4ebfd1418f871a6af",
    "resolution --n 1 --max-degree 6 --output text exactness":
        "c1f9b6d5210957e0c296495d63e2700cf15acfc16d8283ae3bc4b0bbd12a8b22",
    "resolution --n 1 --max-degree 6 --output text dims":
        "8a3a011a0bdcef7cfd8825bd4e6acce3730c5ff55d40d01e15c0e8b816886ab2",
    "diagonal --n 1 --max-degree 6 --output text all":
        "19998c026363999aa7906871f0fe745da0f6df760fb852aec1e335e4f1f5958e",
    "diagonal --n 1 --max-degree 6 --output text build":
        "19998c026363999aa7906871f0fe745da0f6df760fb852aec1e335e4f1f5958e",
    "diagonal --n 1 --max-degree 6 --output text verify":
        "19998c026363999aa7906871f0fe745da0f6df760fb852aec1e335e4f1f5958e",
    "diagonal --n 1 --max-degree 6 --output text squares":
        "19998c026363999aa7906871f0fe745da0f6df760fb852aec1e335e4f1f5958e",
    "hochschild --n 0 --max-degree 12 --output text all":
        "116d3ad021b14e36009bd2a97e0ff3734ebfb86bb068b6300f84ded57d048f7d",
    "hochschild --n 0 --max-degree 12 --output text dims":
        "116d3ad021b14e36009bd2a97e0ff3734ebfb86bb068b6300f84ded57d048f7d",
    "hochschild --n 0 --max-degree 12 --output text bases":
        "116d3ad021b14e36009bd2a97e0ff3734ebfb86bb068b6300f84ded57d048f7d",
    "hochschild --n 0 --max-degree 12 --output text star-table":
        "7236ef43feb9cd9677eb356b27c2d1685acda3ae293edfa8738ff8833e2acef5",
    "hochschild --n 0 --max-degree 12 --output text cup-table":
        "116d3ad021b14e36009bd2a97e0ff3734ebfb86bb068b6300f84ded57d048f7d",
    "ring --n 0 --max-degree 12 --output text all":
        "35018f6f2d3218df7a7bc2a568ec5ddf161c58f7a41f88ecca5b17e30da4ceed",
    "report --n 0 --max-degree 12 --output text all":
        "bd80d3967f355b3c1dbc2dbc8d609fe921bbffed53046fce078d055fc7df8a87",
    "algebra --n 1 --output markdown all":
        "b7718ce70ebf2bc19cf5ba856e1303f4d9f0e947fcacb09c050c6794c43e881c",
    "algebra --n 1 --output markdown basis":
        "bf80845478ce3d95cb50e1866ab5ef3e0f21726d2d2a3ca0dfab8e344a21f611",
    "algebra --n 1 --output markdown dims":
        "bb02f4e82ea8f7692288edd4aa9567974b4d96f1d72007d4aae2640b22afde02",
    "algebra --n 1 --output markdown corners":
        "bb02f4e82ea8f7692288edd4aa9567974b4d96f1d72007d4aae2640b22afde02",
    "resolution --n 1 --max-degree 6 --output markdown all":
        "c80df7d81867a55e7070a1cae9f94cfd960fa6b48465e99921ca168a686dd64a",
    "resolution --n 1 --max-degree 6 --output markdown verify":
        "aad83d1b9addc0fb6c28d80b87b9872b7c8ad05449ef6cf7772067937b0bc037",
    "resolution --n 1 --max-degree 6 --output markdown exactness":
        "a3486515cbe5aa2b80ba18d1c0def49df0055ed86685902907d1e47d6c3b086f",
    "resolution --n 1 --max-degree 6 --output markdown dims":
        "c80df7d81867a55e7070a1cae9f94cfd960fa6b48465e99921ca168a686dd64a",
    "diagonal --n 1 --max-degree 6 --output markdown all":
        "19998c026363999aa7906871f0fe745da0f6df760fb852aec1e335e4f1f5958e",
    "diagonal --n 1 --max-degree 6 --output markdown build":
        "19998c026363999aa7906871f0fe745da0f6df760fb852aec1e335e4f1f5958e",
    "diagonal --n 1 --max-degree 6 --output markdown verify":
        "19998c026363999aa7906871f0fe745da0f6df760fb852aec1e335e4f1f5958e",
    "diagonal --n 1 --max-degree 6 --output markdown squares":
        "19998c026363999aa7906871f0fe745da0f6df760fb852aec1e335e4f1f5958e",
    "hochschild --n 0 --max-degree 12 --output markdown all":
        "397fb18928c06a0b1535ec1853161032b97ecff320f9079ff87898d143fceaab",
    "hochschild --n 0 --max-degree 12 --output markdown dims":
        "397fb18928c06a0b1535ec1853161032b97ecff320f9079ff87898d143fceaab",
    "hochschild --n 0 --max-degree 12 --output markdown bases":
        "397fb18928c06a0b1535ec1853161032b97ecff320f9079ff87898d143fceaab",
    "hochschild --n 0 --max-degree 12 --output markdown star-table":
        "397fb18928c06a0b1535ec1853161032b97ecff320f9079ff87898d143fceaab",
    "hochschild --n 0 --max-degree 12 --output markdown cup-table":
        "397fb18928c06a0b1535ec1853161032b97ecff320f9079ff87898d143fceaab",
    "ring --n 0 --max-degree 12 --output markdown all":
        "35018f6f2d3218df7a7bc2a568ec5ddf161c58f7a41f88ecca5b17e30da4ceed",
    "report --n 0 --max-degree 12 --output markdown all":
        "bd80d3967f355b3c1dbc2dbc8d609fe921bbffed53046fce078d055fc7df8a87",
}


@pytest.mark.parametrize(
    "argv",
    [
        [command, *CHEAP_OPTIONS[command], "--output", output, action]
        for output in ("text", "markdown")
        for command, (_, actions) in COMMANDS.items()
        for action in actions
    ],
    ids=" ".join,
)
def test_text_and_markdown_outcome_is_pinned(capsys, argv):
    assert _outcome_digest(capsys, argv) == PINNED_OUTCOMES[" ".join(argv)]


def _schema_cases():
    """The JSON command line of each (command, action) pair over Q and over
    GF(5), and in each delta mode where it changes the report."""
    cases = []
    for command, (_, actions) in COMMANDS.items():
        extras = [[], ["--field", "gf:5"]]
        if command in ("diagonal", "report"):
            extras += [["--delta-mode", "formula"], ["--delta-mode", "literal"]]
        for action in actions:
            for extra in extras:
                cases.append([command, *CHEAP_OPTIONS[command], *extra, "--output", "json", action])
    return cases


@pytest.mark.parametrize("argv", _schema_cases(), ids=" ".join)
def test_every_json_report_validates_against_the_schema(capsys, argv):
    import jsonschema
    from importlib import resources

    with resources.files("quiverhh.goldens").joinpath("report.schema.json").open() as fh:
        schema = json.load(fh)
    code, out = run(capsys, *argv)
    assert code == 0
    jsonschema.validate(json.loads(out), schema)

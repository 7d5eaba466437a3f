"""Command line entry point.

Subcommands
    algebra     basis, dimensions, corner table, oracle check
    resolution  boundary-squared / exactness / minimality verification;
                `exactness` prints only the exactness rows, but also runs
                the boundary-squared checks, the premise of their
                certificate on the top complex (see `resolution.py`)
    diagonal    build a diagonal family and verify its squares
    hochschild  cohomology dimensions, named bases, star table
    ring        the n = 0 reconciliation (star, cup, known deviations)
    report      the sections above in one JSON document

`report` merges the sections' tables by key, so the hochschild section's
`dimensions` table (degree, hom_dim, hh_dim) replaces the resolution
section's (degree, dim, generators): a report holds no resolution
dimensions.  In text mode `resolution ... dims` prints the resolution
table after its check lines.  `hochschild ... star-table` prints the
star table in every output mode; in text mode the other actions print
no star table, and the JSON of every action holds `dimensions` and
`star_table`.

Each option is declared once, in `pipeline.OPTIONS`, the table that
`RunConfig` also takes its defaults and choices from.  A handler returns
its checks, tables and deviations, and `_emit` stamps the run's config
on the JSON report.

A plain command line (a command name, then full option names each with
a valid value that does not start with "-", and at most one action) is
read by `parse_plain`, which builds no parser.  Any other argv, such as
`-h`, `--opt=value`, an abbreviation like `--max`, `--`, a negative
number or a bad value, goes to the argparse parser of `build_parser`,
which alone prints help and usage errors; a configuration error builds
it too, to print the usage of its subcommand.

Exit status is 0 exactly when every requested must-pass check passes,
and 1 when one fails.  Each check is decided from the rows the run
computed: a solved square the lift got wrong is a failing `square-*`
row.  A documented deviation never fails a run; a deviation that no
ledger entry explains fails `ring-star-table`.  Exit status 2 is a usage
error, a cup product refused because its diagonal fails a square the
product needs, or a report that cannot be written (for example to a full
disk).  Each prints one line on stderr; the first two print no report.
"""

from __future__ import annotations

import os
import sys

from . import reports
from .algebra import oracle_quotient_dim
from .pipeline import OPTIONS, Pipeline, RunConfig
from .products import UnverifiedDiagonal
from .quiver import VERTICES
from .uniform import generator_labels


def _emit(config, payload, text):
    """Write the report; False, after one line on stderr, when it cannot
    be written.

    The JSON report is `payload` (its checks, tables and deviations)
    stamped with the run's config, the one place a report gets it.
    """
    # text and markdown are built by the caller
    if config.output == "json":
        text = reports.canonical_json({"config": config.as_dict(), **payload})
    try:
        if config.out_path:
            with open(config.out_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not config.out_path:
            # the interpreter flushes stdout again at exit, which would fail
            # the same way and print a second error
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        target = config.out_path or "standard output"
        sys.stderr.write(f"quiverhh: cannot write the report to {target}: {exc.strerror}\n")
        return False
    return True


def _check_lines(rows):
    out = []
    for r in rows:
        bits = [r["id"], r["status"]]
        extra = {
            k: v
            for k, v in r.items()
            if k not in ("id", "status", "kind", "check", "degree", "generator")
        }
        if extra:
            bits.append(str(extra))
        out.append("  ".join(str(b) for b in bits))
    return "\n".join(out) + "\n"


def _status_ok(rows):
    return all(r["status"] == "pass" for r in rows)


def cmd_algebra(pipe, action):
    n, alg = pipe.config.n, pipe.algebra
    dim = alg.dim()
    oracle = oracle_quotient_dim(n, 3 * n + 4, alg.field)
    oracle_next = oracle_quotient_dim(n, 3 * n + 5, alg.field)
    rows = [
        {
            "id": "algebra-dimension",
            "kind": "oracle",
            "status": "pass" if dim == 9 * n + 10 == oracle == oracle_next else "fail",
            "rewriting_dim": dim,
            "oracle_dim": oracle,
            "oracle_dim_next_length": oracle_next,
        }
    ]
    tables = {
        "basis": [str(p) for p in alg.basis],
        "dimension": dim,
        "corners": {
            f"{u},{v}": alg.corner_dim(u, v)
            for u in VERTICES for v in VERTICES
            if alg.corner_dim(u, v)
        },
    }
    payload = {"checks": rows, "tables": tables, "deviations": []}
    text = _check_lines(rows)
    if action in ("basis", "all"):
        text += "basis: " + " ".join(tables["basis"]) + "\n"
    if action in ("dims", "corners", "all"):
        text += f"dimension: {tables['dimension']}\ncorners: {tables['corners']}\n"
    return payload, text, _status_ok(rows)


def cmd_resolution(pipe, action):
    res, d = pipe.resolution, pipe.config.max_degree
    # `verify` skips the exactness rows; `exactness` prints only them, but
    # their certificate needs the complex rows too
    complex_rows = res.verify_complex(d)
    exact_rows = [] if action == "verify" else res.verify_exactness(d, complex_rows)
    rows = exact_rows if action == "exactness" else complex_rows + exact_rows
    if action != "exactness":
        bad = [v for m in range(1, d + 1) for v in res.minimality_violations(m)]
        rows.append(
            {
                "id": "minimality",
                "kind": "minimality",
                "status": "pass" if not bad else "fail",
                **({"witness": str(bad[0])} if bad else {}),
            }
        )
    tables = {
        "dimensions": [
            {"degree": m, "dim": res.dim(m), "generators": len(generator_labels(m))}
            for m in range(0, d + 1)
        ]
    }
    if pipe.config.output == "markdown":
        text = reports.render_markdown_table(rows, ["id", "kind", "degree", "status", "witness"])
        text += reports.render_markdown_table(tables["dimensions"], ["degree", "dim", "generators"])
    else:
        text = _check_lines(rows)
        if action == "dims":
            text += "degree      dim  generators\n"
            for row in tables["dimensions"]:
                text += f"{row['degree']:>6}  {row['dim']:>7}  {row['generators']:>10}\n"
    payload = {"checks": rows, "tables": tables, "deviations": []}
    return payload, text, _status_ok(rows)


def cmd_diagonal(pipe, action):
    fam = pipe.family()
    rows = pipe.diagonal.verify_squares(fam, pipe.config.max_degree)
    tables = {}
    if action in ("build", "all"):
        tables["images"] = pipe.family_json(fam)
    ok, deviations = _status_ok(rows), []
    if pipe.config.delta_mode == "formula":
        # the published degree-0 correction does not close the augmentation
        # square; that is fixture material, not a must-pass check
        ok = _status_ok([r for r in rows if r["degree"] >= 1])
        if not _status_ok([r for r in rows if r["degree"] == 0]):
            deviations.append(
                {
                    "id": "formula-augmentation",
                    "expected": "twice the augmentation",
                    "observed": "extra arrow terms from the published vertex table",
                    "status": "documented",
                }
            )
    payload = {"checks": rows, "tables": tables, "deviations": deviations}
    return payload, _check_lines(rows), ok


def _cup_table_wanted(config):
    # z∪z, the highest product of the n = 0 ring, lands in degree 12
    return config.delta_mode == "solved" and config.n == 0 and config.max_degree >= 12


# the columns of a printed star table
_STAR_COLUMNS = ("left", "right", "table", "computed", "status")


def cmd_hochschild(pipe, action):
    hc, n = pipe.hochschild, pipe.config.n
    tables = {
        "dimensions": [
            {"degree": m, "hom_dim": hc.hom_dim(m), "hh_dim": hc.hh_dimension(m)}
            for m in range(0, pipe.config.max_degree)
        ],
    }
    # each table is computed only when printed: text output prints the
    # dimensions, markdown and the text of `star-table` add the star
    # table, and only the JSON holds the rest
    star_text = pipe.config.output == "text" and action == "star-table"
    if pipe.config.output != "text" or star_text:
        tables["star_table"] = pipe.products.table_comparison()
    prints_json = pipe.config.output == "json"
    checks = []
    for row in tables["dimensions"]:
        m = row["degree"]
        want = 3 * n + 4 if m % 3 == 0 else (3 * n + 5 if m % 3 == 1 else 3 * n + 1)
        checks.append(
            {
                "id": f"hom-dim-{m}",
                "kind": "hom-dimension",
                "degree": m,
                "status": "pass" if row["hom_dim"] == want else "fail",
            }
        )
    if prints_json and action in ("bases", "all"):
        tables["named_bases"] = {
            str(m): [str(c.name) for c in hc.named_basis(m)]
            for m in range(0, min(3, pipe.config.max_degree))
        }
    if prints_json and action in ("cup-table", "all") and _cup_table_wanted(pipe.config):
        tables["cup_table"] = reports.ring_cup_report(hc, pipe.products, pipe.family("solved"))
    text = _check_lines(checks)
    text += "degree  hom-dim  hh-dim\n"
    for row in tables["dimensions"]:
        text += f"{row['degree']:>6}  {row['hom_dim']:>7}  {row['hh_dim']:>6}\n"
    if star_text:
        text += reports.render_markdown_table(tables["star_table"], _STAR_COLUMNS)
    if pipe.config.output == "markdown":
        text = reports.render_markdown_table(
            tables["dimensions"], ["degree", "hom_dim", "hh_dim"]
        ) + reports.render_markdown_table(tables["star_table"], _STAR_COLUMNS)
    payload = {"checks": checks, "tables": tables, "deviations": []}
    return payload, text, _status_ok(checks)


def cmd_ring(pipe, action):
    hc, pr, dm = pipe.hochschild, pipe.products, pipe.diagonal
    star_rows = reports.ring_star_report(hc, pr)
    cup_rows = reports.ring_cup_report(hc, pr, pipe.family("solved"))
    worked = reports.worked_value_report(dm, dm.default_homotopy())
    ledger = reports.kd_ledger()
    # every deviation is explained by a known deviation, and each one it
    # names is in the ledger
    star_ok = all(r["status"] == "match" or "kd" in r for r in star_rows)
    ledger_ok = {r["kd"] for r in star_rows if "kd" in r} <= {row["id"] for row in ledger}
    checks = [
        {
            "id": "ring-star-table",
            "kind": "reconciliation",
            "status": "pass" if star_ok else "fail",
        },
        {
            "id": "kd-ledger",
            "kind": "golden",
            "status": "pass" if ledger_ok else "fail",
        },
    ]
    tables = {
        "star": star_rows,
        "cup": cup_rows,
        "presentation": reports.ring_presentation(cup_rows),
        "worked_values": worked,
    }
    text = _check_lines(checks)
    text += reports.render_markdown_table(star_rows, _STAR_COLUMNS)
    text += reports.render_markdown_table(cup_rows, ["left", "right", "class"])
    text += reports.render_markdown_table(
        tables["presentation"], ["relation", "published", "computed", "status"]
    )
    payload = {"checks": checks, "tables": tables, "deviations": ledger}
    return payload, text, _status_ok(checks)


def cmd_report(pipe, action):
    payload = {"checks": [], "tables": {}, "deviations": []}
    ok = True
    # the diagonal runs first: should an exactness row fall back to the
    # boundary ranks, it reads them off the solvers the diagonal built, so
    # no boundary matrix is eliminated twice
    diagonal = cmd_diagonal(pipe, "all")
    algebra = cmd_algebra(pipe, "all")
    resolution = cmd_resolution(pipe, "all")
    # "bases" is "all" without the cup table, which is the ring's table
    # and is computed once, in the ring section below
    hochschild = cmd_hochschild(pipe, "bases")
    # merged in the printed order; a table replaces an earlier one of its key
    for sub_payload, _, sub_ok in (algebra, resolution, diagonal, hochschild):
        payload["checks"].extend(sub_payload["checks"])
        payload["tables"].update(sub_payload["tables"])
        payload["deviations"].extend(sub_payload["deviations"])
        ok = ok and sub_ok
    if pipe.config.n == 0:
        ring_payload, _, ring_ok = cmd_ring(pipe, "all")
        payload["tables"]["ring"] = ring_payload["tables"]
        if _cup_table_wanted(pipe.config):
            payload["tables"]["cup_table"] = ring_payload["tables"]["cup"]
        payload["checks"].extend(ring_payload["checks"])
        payload["deviations"].extend(ring_payload["deviations"])
        ok = ok and ring_ok
    return payload, None, ok  # `main` makes a report a JSON run


COMMANDS = {
    "algebra": (cmd_algebra, ("all", "basis", "dims", "corners")),
    "resolution": (cmd_resolution, ("all", "verify", "exactness", "dims")),
    "diagonal": (cmd_diagonal, ("all", "build", "verify", "squares")),
    "hochschild": (cmd_hochschild, ("all", "dims", "bases", "star-table", "cup-table")),
    "ring": (cmd_ring, ("all",)),
    "report": (cmd_report, ("all",)),
}


_OPTION_NAMED = {option[0]: option for option in OPTIONS}


def build_parser():
    """The argparse parser of `OPTIONS`, the one author of help and usage
    errors."""
    # imported here: a plain command line never builds the parser
    import argparse

    parser = argparse.ArgumentParser(
        prog="quiverhh",
        description="exact homological computations for the quiver algebra family",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, actions) in COMMANDS.items():
        p = sub.add_parser(name)
        for option, dest, kind, default, choices, help_text in OPTIONS:
            p.add_argument(option, dest=dest, type=kind, default=default, choices=choices,
                           help=help_text)
        p.add_argument("action", nargs="?", default="all", choices=actions)
        # a configuration error is reported with the usage of its subcommand
        p.set_defaults(usage_error=p.error)
    return parser


def parse_plain(argv):
    """The arguments of a plain command line, as a dict of what
    `build_parser().parse_args(argv)` returns but `usage_error`; None for
    any other argv.

    Plain is a command name, then in any order option names spelled in
    full, each followed by a valid value that does not start with "-",
    and at most one action.  A repeated option keeps its last value.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    actions = COMMANDS[argv[0]][1]
    args = {"command": argv[0]}
    args.update((dest, default) for _, dest, _, default, _, _ in OPTIONS)
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in _OPTION_NAMED:
            if token not in actions:
                return None
            positionals.append(token)
            continue
        _, dest, kind, _, choices, _ = _OPTION_NAMED[token]
        value = next(tokens, None)
        if value is None or value.startswith("-") or (choices and value not in choices):
            return None
        try:
            args[dest] = kind(value)
        except ValueError:
            return None
    if len(positionals) > 1:
        return None
    args["action"] = positionals[0] if positionals else "all"
    return args


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = parse_plain(argv) or vars(build_parser().parse_args(argv))
    try:
        if args["command"] == "ring" and args["n"] != 0:
            raise ValueError("ring reconciliation is defined for --n 0")
        if args["command"] == "report":  # every output mode prints the JSON
            args["output"] = "json"
        config = RunConfig(**{dest: args[dest] for _, dest, *_ in OPTIONS})
        if args["command"] == "hochschild" and args["action"] == "cup-table":
            if not _cup_table_wanted(config):
                raise ValueError(
                    "the cup table is defined for --n 0 --delta-mode solved --max-degree >= 12"
                )
    except ValueError as exc:
        build_parser().parse_args(argv).usage_error(str(exc))
    pipe = Pipeline(config)
    handler, _ = COMMANDS[args["command"]]
    try:
        payload, text, ok = handler(pipe, args["action"])
    except UnverifiedDiagonal as exc:
        sys.stderr.write(f"cup product refused: {exc}\n")
        return 2
    if not _emit(config, payload, text):
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

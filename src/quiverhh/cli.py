"""Command line entry point.

Subcommands
    algebra     basis, dimensions, corner table, oracle check
    resolution  boundary-squared / exactness / minimality verification
    diagonal    build a diagonal family and verify its squares
    hochschild  cohomology dimensions, named bases, star table
    ring        the n = 0 reconciliation (star, cup, known deviations)
    report      everything above in one JSON document

Exit status is 0 exactly when every requested must-pass check passes and
every documented deviation matches the committed ledger; documented
deviations themselves never fail a run.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from . import reports
from .pipeline import Pipeline, RunConfig
from .uniform import generator_labels


def _load_golden(name):
    with resources.files("quiverhh.goldens").joinpath(name).open() as fh:
        return json.load(fh)


def _emit(config, payload, text):
    # text and markdown are built by the caller; None means the JSON itself
    if config.output == "json" or text is None:
        text = reports.canonical_json(payload)
    if config.out_path:
        with open(config.out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    rows = pipe.algebra_checks()
    alg = pipe.algebra
    tables = {
        "basis": [str(p) for p in alg.basis],
        "dimension": alg.dim(),
        "corners": {
            f"{u},{v}": alg.corner_dim(u, v)
            for u in ("e0", "e1", "f1", "e2")
            for v in ("e0", "e1", "f1", "e2")
            if alg.corner_dim(u, v)
        },
    }
    payload = {"config": pipe.config.as_dict(), "checks": rows, "tables": tables, "deviations": []}
    text = _check_lines(rows)
    if action in ("basis", "all"):
        text += "basis: " + " ".join(tables["basis"]) + "\n"
    if action in ("dims", "corners", "all"):
        text += f"dimension: {tables['dimension']}\ncorners: {tables['corners']}\n"
    return payload, text, _status_ok(rows)


_RESOLUTION_KINDS = {
    "verify": ("boundary-squared", "minimality"),
    "exactness": ("exactness",),
}


def cmd_resolution(pipe, action):
    if action in _RESOLUTION_KINDS:
        rows = pipe.resolution_checks(_RESOLUTION_KINDS[action])
    else:
        rows = pipe.resolution_checks()
    tables = {
        "dimensions": [
            {"degree": m, "dim": pipe.resolution.dim(m), "generators": len(generator_labels(m))}
            for m in range(0, pipe.config.max_degree + 1)
        ]
    }
    if pipe.config.output == "markdown":
        text = reports.render_markdown_table(rows, ["id", "kind", "degree", "status", "witness"])
        text += reports.render_markdown_table(tables["dimensions"], ["degree", "dim", "generators"])
    else:
        text = _check_lines(rows)
    payload = {"config": pipe.config.as_dict(), "checks": rows, "tables": tables, "deviations": []}
    return payload, text, _status_ok(rows)


def cmd_diagonal(pipe, action):
    fam = pipe.family()
    rows = pipe.diagonal_checks()
    tables = {}
    if action in ("build", "all"):
        tables["images"] = pipe.family_json(fam)
    deviations = []
    ok = True
    if pipe.config.delta_mode == "literal":
        golden = _load_golden("squares_literal.json").get(str(pipe.config.n))
        if golden is not None:
            upto = min(pipe.config.max_degree, 9)
            got = [
                {"id": r["id"], "status": r["status"]}
                for r in rows
                if r["degree"] <= upto
            ]
            want = [r for r in golden if int(r["id"].split("-")[1]) <= upto]
            if got != want:
                ok = False
                deviations.append(
                    {
                        "id": "square-report",
                        "expected": "committed square report",
                        "observed": "differs",
                        "status": "mismatch",
                    }
                )
    elif pipe.config.delta_mode == "formula":
        # the published degree-0 correction does not close the augmentation
        # square; that is fixture material, not a must-pass check
        ok = _status_ok([r for r in rows if r["degree"] >= 1])
        aug_fails = [r for r in rows if r["degree"] == 0 and r["status"] == "fail"]
        if aug_fails:
            deviations.append(
                {
                    "id": "formula-augmentation",
                    "expected": "twice the augmentation",
                    "observed": "extra arrow terms from the published vertex table",
                    "status": "documented",
                }
            )
    else:
        ok = _status_ok(rows)
    payload = {
        "config": pipe.config.as_dict(),
        "checks": rows,
        "tables": tables,
        "deviations": deviations,
    }
    return payload, _check_lines(rows), ok


def cmd_hochschild(pipe, action):
    tables = pipe.hochschild_tables()
    checks = []
    n = pipe.config.n
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
    if action in ("bases", "all"):
        tables["named_bases"] = {
            str(m): [str(c.name) for c in pipe.hochschild.named_basis(m)]
            for m in range(0, min(3, pipe.config.max_degree))
        }
    if (
        action in ("cup-table", "all")
        and pipe.config.delta_mode == "solved"
        and pipe.config.n == 0
        and pipe.config.max_degree >= 12
    ):
        tables["cup_table"] = reports.ring_cup_report(
            pipe.hochschild, pipe.products, pipe.family("solved")
        )
    text = _check_lines(checks)
    text += "degree  hom-dim  hh-dim\n"
    for row in tables["dimensions"]:
        text += f"{row['degree']:>6}  {row['hom_dim']:>7}  {row['hh_dim']:>6}\n"
    if pipe.config.output == "markdown":
        text = reports.render_markdown_table(
            tables["dimensions"], ["degree", "hom_dim", "hh_dim"]
        ) + reports.render_markdown_table(
            tables["star_table"], ["left", "right", "table", "computed", "status"]
        )
    payload = {
        "config": pipe.config.as_dict(),
        "checks": checks,
        "tables": tables,
        "deviations": [],
    }
    return payload, text, _status_ok(checks)


def cmd_ring(pipe, action):
    if pipe.config.n != 0:
        raise SystemExit("ring reconciliation is defined for --n 0")
    hc, pr, dm = pipe.hochschild, pipe.products, pipe.diagonal
    star_rows = reports.ring_star_report(hc, pr)
    cup_rows = reports.ring_cup_report(hc, pr, pipe.family("solved"))
    worked = reports.worked_value_report(dm, dm.default_homotopy())
    ledger = reports.kd_ledger()
    golden = _load_golden("kd_ledger.json")
    ledger_ok = [row["id"] for row in ledger] == [row["id"] for row in golden]
    star_ok = all(
        r["status"] == "match" or r.get("kd") in ("KD-1", "KD-2") for r in star_rows
    )
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
    text += reports.render_markdown_table(
        star_rows, ["left", "right", "table", "computed", "status"]
    )
    text += reports.render_markdown_table(cup_rows, ["left", "right", "class"])
    text += reports.render_markdown_table(
        tables["presentation"], ["relation", "published", "computed", "status"]
    )
    payload = {
        "config": pipe.config.as_dict(),
        "checks": checks,
        "tables": tables,
        "deviations": ledger,
    }
    return payload, text, _status_ok(checks)


def cmd_report(pipe, action):
    payload = {"config": pipe.config.as_dict(), "checks": [], "tables": {}, "deviations": []}
    ok = True
    for sub in (cmd_algebra, cmd_resolution, cmd_diagonal, cmd_hochschild):
        sub_payload, _, sub_ok = sub(pipe, "all")
        payload["checks"].extend(sub_payload["checks"])
        payload["tables"].update(sub_payload["tables"])
        payload["deviations"].extend(sub_payload["deviations"])
        ok = ok and sub_ok
    if pipe.config.n == 0:
        ring_payload, _, ring_ok = cmd_ring(pipe, "all")
        payload["tables"]["ring"] = ring_payload["tables"]
        payload["checks"].extend(ring_payload["checks"])
        payload["deviations"].extend(ring_payload["deviations"])
        ok = ok and ring_ok
    # every output mode prints the JSON, serialised once by _emit
    return payload, None, ok


COMMANDS = {
    "algebra": (cmd_algebra, ("all", "basis", "dims", "corners")),
    "resolution": (cmd_resolution, ("all", "verify", "exactness", "dims")),
    "diagonal": (cmd_diagonal, ("all", "build", "verify", "squares")),
    "hochschild": (cmd_hochschild, ("all", "dims", "bases", "star-table", "cup-table")),
    "ring": (cmd_ring, ("all",)),
    "report": (cmd_report, ("all",)),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quiverhh",
        description="exact homological computations for the quiver algebra family",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, actions) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, default=0)
        p.add_argument("--field", default="rationals")
        p.add_argument("--max-degree", type=int, default=9)
        p.add_argument(
            "--delta-mode", default="solved", choices=("literal", "formula", "solved")
        )
        p.add_argument(
            "--homotopy",
            default="default",
            help="default | zero | file:PATH (serialised homotopy images)",
        )
        p.add_argument("--output", default="text", choices=("text", "json", "markdown"))
        p.add_argument("--out-path", default=None)
        p.add_argument("action", nargs="?", default="all", choices=actions)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            n=args.n,
            field=args.field,
            max_degree=args.max_degree,
            delta_mode=args.delta_mode,
            homotopy=args.homotopy,
            output=args.output,
            out_path=args.out_path,
        )
    except ValueError as exc:
        parser.error(str(exc))
    pipe = Pipeline(config)
    handler, _ = COMMANDS[args.command]
    try:
        payload, text, ok = handler(pipe, args.action)
    except ArithmeticError as exc:
        sys.stderr.write(f"solver infeasibility: {exc}\n")
        return 2
    _emit(config, payload, text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""The five workloads and the checks made on their outputs.

Each workload is one CLI invocation with `--output json`.  Its checks
compare the JSON against a formula or a required property, never against
a stored copy of an earlier output.  `check_output` runs in the operation
process after its timed call; `check_run` runs once per run in a process
of its own and recomputes products of classes through the library.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# The quiver, restated here so that checks on printed paths do not rely
# on the code under test.
ARROWS = {"a0": ("e0", "e1"), "a1": ("e1", "e2"), "a2": ("e2", "e0"),
          "b0": ("e0", "f1"), "b1": ("f1", "e2")}
VERTICES = ("e0", "e1", "f1", "e2")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the CLI subcommand
    n: int
    field: str
    max_degree: int
    action: str

    def argv(self, rng):
        """CLI arguments; the option order is drawn from `rng`."""
        opts = [["--n", str(self.n)], ["--max-degree", str(self.max_degree)],
                ["--field", self.field], ["--output", "json"]]
        rng.shuffle(opts)
        return [self.command] + [tok for pair in opts for tok in pair] + [self.action]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exactness-n5", "resolution", 5, "rationals", 12, "exactness"),
        Workload("squares-n3", "diagonal", 3, "rationals", 12, "squares"),
        Workload("star-n8", "hochschild", 8, "rationals", 12, "dims"),
        Workload("ring-n0", "report", 0, "rationals", 12, "all"),
        Workload("oracle-n7", "algebra", 7, "gf:7", 12, "basis"),
    )
}


class CheckFailed(Exception):
    pass


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


def _checks_of_kind(report, kinds):
    return [r for r in report["checks"] if r["kind"] in kinds]


def _exactness(w, report):
    rows = _checks_of_kind(report, ("exactness",))
    _require([r["degree"] for r in rows] == list(range(w.max_degree)),
             "one exactness row per degree 0..max-degree-1")
    kdim = {}
    for r in rows:
        _require(r["kernel_dim"] == r["next_rank"], f"exact at degree {r['degree']}")
        _require(r["status"] == "pass", f"status at degree {r['degree']}")
        kdim[r["degree"]] = r["kernel_dim"]
    # the resolution is 6-periodic from degree 2 on
    for m in range(2, w.max_degree - 6):
        _require(kdim[m] == kdim[m + 6], f"kernel dims at {m} and {m + 6} agree")


def generator_count(m):
    """Generators of the resolution in degree m: 4, then 5, 5, 6 by m mod 3."""
    return 4 if m == 0 else {1: 5, 2: 5, 0: 6}[m % 3]


def _squares(w, report):
    rows = _checks_of_kind(report, ("square", "augmentation-square"))
    want = sum(generator_count(m) for m in range(w.max_degree + 1))
    _require(len(rows) == want, f"{len(rows)} squares, want {want}")
    for m in range(w.max_degree + 1):
        got = sum(1 for r in rows if r["degree"] == m)
        _require(got == generator_count(m), f"squares at degree {m}")
    _require(all(r["status"] == "pass" for r in rows), "every square passes")


def hom_dim(n, m):
    return (3 * n + 4, 3 * n + 5, 3 * n + 1)[m % 3]


def _star(w, report):
    n = w.n
    dims = report["tables"]["dimensions"]
    _require([d["degree"] for d in dims] == list(range(w.max_degree)), "one row per degree")
    hh = {}
    for d in dims:
        _require(d["hom_dim"] == hom_dim(n, d["degree"]), f"Hom dim at {d['degree']}")
        hh[d["degree"]] = d["hh_dim"]
    for m in range(3, w.max_degree - 6):
        _require(hh[m] == hh[m + 6], f"HH dims at {m} and {m + 6} agree")
    rows = report["tables"]["star_table"]
    _require(len(rows) == (3 * n + 4) * (12 * n + 14), f"{len(rows)} star rows")
    _require(all(r["status"] == "pass" for r in report["checks"]), "Hom-dim checks pass")


SCHEMA = Path(__file__).resolve().parent.parent / "src/quiverhh/goldens/report.schema.json"


def _ring(w, report):
    import jsonschema

    jsonschema.validate(report, json.loads(SCHEMA.read_text()))
    _require(all(r["status"] == "pass" for r in report["checks"]), "every check passes")
    cup = {(r["left"], r["right"]): r["class"] for r in report["tables"]["ring"]["cup"]}
    for g in ("x", "y", "z"):
        _require(cup[("x", g)] == g and cup[(g, "x")] == g, f"x is a unit on {g}")
    _require(cup[("y", "y")] == "0", "y cup y is zero")
    _require(cup[("y", "z")] == cup[("z", "y")], "y cup z equals z cup y")


def _killed_words(n):
    """Arrow words the ideal kills, and the rewritten detour b0*b1."""
    def a_word(i, length):
        return tuple(f"a{(i + k) % 3}" for k in range(length))

    return [("b0", "b1"), ("b1", "a2"), ("a2", "b0"),
            a_word(1, 3 * n + 2), a_word(2, 3 * n + 2)]


def _contains(word, sub):
    return any(word[i:i + len(sub)] == sub for i in range(len(word) - len(sub) + 1))


def _oracle(w, report):
    n = w.n
    want = 9 * n + 10
    (row,) = _checks_of_kind(report, ("oracle",))
    _require(row["rewriting_dim"] == row["oracle_dim"] == row["oracle_dim_next_length"] == want,
             f"dimensions {row} equal {want}")
    _require(row["status"] == "pass", "oracle check passes")
    basis = report["tables"]["basis"]
    _require(len(basis) == len(set(basis)) == want, f"{len(basis)} distinct basis paths")
    banned = _killed_words(n)
    for text in basis:
        if text in VERTICES:
            continue
        word = tuple(text.split("*"))
        _require(all(ARROWS[a][1] == ARROWS[b][0] for a, b in zip(word, word[1:])),
                 f"{text} composes")
        _require(not any(_contains(word, sub) for sub in banned), f"{text} is reduced")


_OUTPUT_CHECKS = {
    "exactness-n5": _exactness,
    "squares-n3": _squares,
    "star-n8": _star,
    "ring-n0": _ring,
    "oracle-n7": _oracle,
}


def check_output(w, text):
    """Check one operation's JSON output; raise CheckFailed."""
    report = json.loads(text)
    _require(report["config"]["n"] == w.n and report["config"]["field"] == w.field,
             "the report echoes its configuration")
    _OUTPUT_CHECKS[w.name](w, report)


def check_run(w):
    """Checks recomputed through the library once per run (ring-n0 only)."""
    if w.name != "ring-n0":
        return
    from quiverhh.pipeline import Pipeline, RunConfig

    pipe = Pipeline(RunConfig(n=w.n, field=w.field, max_degree=w.max_degree))
    hc, pr = pipe.hochschild, pipe.products
    fam = pipe.family("solved")
    x, y, z = hc.x_cochain(), hc.y_cochain(), hc.z_cochain()
    for g, name in ((x, "x"), (y, "y"), (z, "z")):
        _require(hc.classes_equal(pr.cup(x, g, fam), g), f"x cup {name} = {name}")
        _require(hc.classes_equal(pr.cup(g, x, fam), g), f"{name} cup x = {name}")
    _require(hc.classes_equal(pr.cup(y, y, fam), hc.zero_cochain(2)), "y cup y = 0")
    # graded commutativity: the sign (-1)^(1*6) is +1
    _require(hc.classes_equal(pr.cup(y, z, fam), pr.cup(z, y, fam)), "y cup z = z cup y")

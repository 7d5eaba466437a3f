"""Report builders: verification summaries, the ring reconciliation for
the first family member, the known-deviation ledger, and the worked
corrected-diagonal fixtures.

Everything returns plain dicts/lists of JSON-serialisable data, built in
deterministic order, so identical configurations produce byte-identical
serialised reports.
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii

from .linalg import axpy
from .quiver import parse_path
from .uniform import label_at

_LEDGER = os.path.join(os.path.dirname(__file__), "goldens", "kd_ledger.json")


def kd_ledger():
    """The documented systematic gaps between the published multiplication
    tables and the two-corner-diagonal products.

    Read from `goldens/kd_ledger.json` by its path next to this module,
    where the package data is installed; `importlib.resources` would
    import the `goldens` namespace package and search `sys.path` for it.
    """
    with open(_LEDGER, "rb") as fh:
        return json.load(fh)


_CHUNK = 2048  # pending fragments that canonical_json joins into one chunk


def canonical_json(data):
    """`json.dumps(data, indent=2, sort_keys=True) + "\n"`, byte for byte.

    With `indent` set, `json` encodes in pure Python; this writer emits
    the same text, escaping strings with the C `encode_basestring_ascii`.
    Object keys must be strings; a value that is not a dict, list, tuple,
    str, int, float, bool or None raises TypeError, as in `json`.

    A full report has some 10^4 fragments, whose objects take several
    times the memory of the text they spell.  So after a list item, once
    `_CHUNK` fragments are pending, they are joined into one chunk, and
    the chunks are joined at the end: the same single string, with a
    transient heap of about twice the text instead of five times.
    """
    if not isinstance(data, (dict, list, tuple)):
        return _scalar_json(data) + "\n"
    parts, chunks = [], []
    _write_json(data, "\n", parts, chunks, {})
    parts.append("\n")
    chunks.append("".join(parts))
    return "".join(chunks)


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _scalar_json(data):
    """The JSON text of a str, int, float, bool or None."""
    if isinstance(data, str):
        return encode_basestring_ascii(data)
    if data is None or data is True or data is False:
        return _CONSTANTS[data]
    if isinstance(data, int):
        return int.__repr__(data)
    if isinstance(data, float):
        return json.dumps(data)
    raise TypeError(f"Object of type {type(data).__name__} is not JSON serializable")


def _write_json(data, newline, parts, chunks, heads):
    """Append `data` (a dict, list or tuple) to `parts` as `json.dumps(...,
    indent=2, sort_keys=True)` would write it, with `newline` the line
    break and indent of its own level; `parts` goes into `chunks` as one
    string whenever a list item leaves `_CHUNK` fragments in it.

    `heads`, one per `canonical_json` call, keeps for each indent level
    the encoded head `,<line break>"key": ` of every key written there, so
    the rows of a table encode their keys once.  A value dispatches on its
    exact type (str, int, then the containers) before the general tests.
    """
    emit = parts.append
    inner = newline + "  "
    if isinstance(data, dict):
        if not data:
            emit("{}")
            return
        level = heads.get(inner)
        if level is None:
            level = heads[inner] = {}
        first = True
        for key in sorted(data):
            head = level.get(key)
            if head is None:
                if type(key) is not str:
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                head = level[key] = "," + inner + encode_basestring_ascii(key) + ": "
            if first:
                head, first = "{" + head[1:], False
            value = data[key]
            kind = type(value)
            if kind is str:
                emit(head + encode_basestring_ascii(value))
            elif kind is int:
                emit(head + int.__repr__(value))
            elif kind is dict or kind is list or isinstance(value, (dict, list, tuple)):
                emit(head)
                _write_json(value, inner, parts, chunks, heads)
            else:
                emit(head + _scalar_json(value))
        emit(newline + "}")
    else:
        if not data:
            emit("[]")
            return
        sep, comma = "[" + inner, "," + inner
        for item in data:
            kind = type(item)
            if kind is str:
                emit(sep + encode_basestring_ascii(item))
            elif kind is int:
                emit(sep + int.__repr__(item))
            elif kind is dict or kind is list or isinstance(item, (dict, list, tuple)):
                emit(sep)
                _write_json(item, inner, parts, chunks, heads)
            else:
                emit(sep + _scalar_json(item))
            sep = comma
            if len(parts) >= _CHUNK:
                chunks.append("".join(parts))
                parts.clear()
        emit(newline + "]")


def render_markdown_table(rows, columns):
    out = ["| " + " | ".join(columns) + " |", "|" + "---|" * len(columns)]
    for row in rows:
        out.append("| " + " | ".join(str(row.get(c, "")) for c in columns) + " |")
    return "\n".join(out) + "\n"


# -- the ring reconciliation for n = 0 -------------------------------------

# in the order of the relations in the published presentation
PUBLISHED_XYZ_TABLE = {
    ("x", "x"): "2x",
    ("x", "y"): "y",
    ("y", "x"): "y",
    ("x", "z"): "z",
    ("z", "x"): "z",
    ("y", "y"): "0",
    ("y", "z"): "0",
    ("z", "y"): "0",
    ("z", "z"): "x",
}


def _describe_vs(hc, value, basis):
    """Describe a cochain as 0, a (multiple of a) named xyz element, or raw."""
    if value.is_zero():
        return "0"
    for name, ref in basis.items():
        if value == ref:
            return name
        if value == hc.scale(2, ref):
            return f"2{name}"
    return f"<degree-{value.degree} cochain>"


def _ledger_entry(f, g, table, computed):
    """The known deviation that explains a star product f*g computed as
    `computed` where the published table has `table`, or None."""
    if f.degree == g.degree == 0 and computed == "2" + table:
        return "KD-1"  # the two-corner diagonal doubles at degree 0
    if f.degree > 0 and g.degree > 0 and computed == "0" and table != "0":
        return "KD-2"  # it has no interior bidegrees
    return None


def _xyz_products(hc, product):
    """The cochains x, y, z by name, and the nine (left name, right name,
    product of their cochains) triples in row order."""
    basis = {"x": hc.x_cochain(), "y": hc.y_cochain(), "z": hc.z_cochain()}
    return basis, [(fn, gn, product(basis[fn], basis[gn])) for fn in basis for gn in basis]


def ring_star_report(hc, products):
    """Chain-level products of x, y, z through the two-corner diagonal,
    reconciled entry by entry against the published table."""
    basis, triples = _xyz_products(hc, products.star)
    rows = []
    for fn, gn, got in triples:
        got_str = _describe_vs(hc, got, basis)
        want = PUBLISHED_XYZ_TABLE[(fn, gn)]
        row = {
            "left": fn,
            "right": gn,
            "table": want,
            "computed": got_str,
            "status": "match" if got_str == want else "deviation",
        }
        if got_str != want and (kd := _ledger_entry(basis[fn], basis[gn], want, got_str)):
            row["kd"] = kd
        rows.append(row)
    return rows


def ring_presentation(cup_rows):
    """Relation list over the named generators, published versus computed
    at the cohomology-class level."""
    computed = {(r["left"], r["right"]): r["class"] for r in cup_rows}
    out = []
    for pair, published in PUBLISHED_XYZ_TABLE.items():
        got = computed[pair]
        if published == "2x":
            holds = got == "x"  # the class-level unit absorbs the chain factor
            note = "chain-level factor 2 is KD-1"
        else:
            holds = got == published
            note = ""
        row = {"relation": "*".join(pair), "published": published, "computed": got,
               "status": "holds" if holds else "differs"}
        if note:
            row["note"] = note
        out.append(row)
    return out


def ring_cup_report(hc, products, family):
    """Class-level cup products of x, y, z through a solved diagonal."""
    basis, triples = _xyz_products(hc, lambda f, g: products.cup(f, g, family))
    # x, y and z have degrees 0, 1 and 6, so no two share a key
    names = {(c.degree, hc.class_residual(c)): name for name, c in basis.items()}
    rows = []
    for fn, gn, got in triples:
        res = hc.class_residual(got)
        if res == ():
            desc = "0"
        else:
            desc = names.get((got.degree, res), f"nonzero class in degree {got.degree}")
        rows.append({"left": fn, "right": gn, "class": desc})
    return rows


# -- worked corrected-diagonal values (first member) ------------------------

# The displayed degree-0/degree-1 values of the corrected diagonal.  Each
# claimed correction term is (coefficient, left path, pair of the degree-0
# factor, pair of the degree-m factor, right path); pairs that name no
# generator at the required degree make the claim ill-typed as printed.
WORKED_VALUES = [
    {"degree": 0, "generator": ("e0", "e0"), "correction": []},
    {"degree": 0, "generator": ("e1", "e1"), "correction": []},
    {"degree": 0, "generator": ("e2", "e2"), "correction": []},
    {
        "degree": 0,
        "generator": ("f1", "f1"),
        "correction": [(1, "f1", ("f1", "f1"), ("f1", "e1"), "a1")],
    },
    {
        "degree": 1,
        "generator": ("e0", "e1"),
        "correction": [
            (1, "e0", ("e0", "e0"), ("e0", "e1"), "a1"),
            (-1, "e0", ("e0", "e0"), ("e0", "f1"), "b1"),
            (-1, "a0", ("e1", "e1"), ("e1", "e2"), "e2"),
        ],
    },
    {
        "degree": 1,
        "generator": ("e1", "e2"),
        "correction": [
            (1, "e1", ("e1", "e1"), ("e1", "e2"), "a2"),
            (-1, "a1", ("e2", "e2"), ("e2", "e0"), "e0"),
        ],
    },
    {
        "degree": 1,
        "generator": ("e0", "f1"),
        "correction": [
            (1, "e0", ("e0", "e0"), ("e0", "f1"), "b1"),
            (1, "b0", ("f1", "f1"), ("f1", "e2"), "e2"),
        ],
    },
    {
        "degree": 1,
        "generator": ("e2", "e0"),
        "correction": [
            (1, "e2", ("e2", "e2"), ("e2", "e0"), "a0"),
            (-1, "a2", ("e0", "e0"), ("e0", "e1"), "e1"),
        ],
    },
    {
        "degree": 1,
        "generator": ("f1", "e2"),
        "correction": [
            (1, "f1", ("f1", "f1"), ("f1", "e0"), "b0"),
            (-1, "b1", ("e2", "e2"), ("e2", "e0"), "e0"),
        ],
    },
]


def _build_claim(dm, claim):
    """Tensor element for a claimed correction; None when ill-typed."""
    res = dm.res
    alg = res.algebra
    m = claim["degree"]
    out = {}
    for coeff, left_s, pair0, pair1, right_s in claim["correction"]:
        lab0 = label_at(0, *pair0)
        lab1 = label_at(m, *pair1)
        if lab0 is None or lab1 is None:
            return None
        left = alg.basis_index[parse_path(left_s)]
        right = alg.basis_index[parse_path(right_s)]
        term = dm.tc.act(
            left,
            dm.tc.tensor(res.generator(lab0), res.generator(lab1)),
            right,
        )
        axpy(out, coeff, term, dm.field.p)
    return out


def worked_value_report(dm, homotopy):
    """Compare the corrected diagonal against the displayed worked values:
    its correction terms, corrected minus literal image, per generator."""
    rows = []
    for claim in WORKED_VALUES:
        m = claim["degree"]
        computed = homotopy.correction(m, dm.res.generator(label_at(m, *claim["generator"])))
        want = _build_claim(dm, claim)
        if want is None:
            status = "ill-typed"
        elif axpy(dict(computed), -1, want, dm.field.p):
            status = "deviation"
        else:
            status = "match"
        rows.append(
            {
                "degree": m,
                "generator": "(%s,%s)" % claim["generator"],
                "status": status,
                "computed_terms": len(computed),
                "claimed_terms": None if want is None else len(want),
            }
        )
    return rows

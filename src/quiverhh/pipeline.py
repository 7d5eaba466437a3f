"""One object tying the whole computation together for a chosen
configuration: algebra member, resolution, tensor complex, diagonal
machinery, cochain complex, and products, plus the diagonal family of
each mode, the chosen homotopy, the writing of serialised families and
the reading of a serialised homotopy.  It builds no report rows: each
check row is finished by the code that decides it, and the CLI
assembles the sections.  Everything below it is deterministic, so a
pipeline built twice from the same configuration produces identical
reports.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from functools import cached_property

from .algebra import get_algebra
from .cochains import HochschildComplex
from .diagonal import DiagonalMaps, HomotopyFamily
from .linalg import QQ, PrimeField
from .products import Products
from .quiver import VERTICES, parse_path
from .resolution import Resolution
from .tensorcx import TensorComplex
from .uniform import Degrees, generator_labels, label_index, label_pair, parse_label


# Each run option once, as (name, dest, type, default, choices, help):
# `RunConfig` takes its defaults and choice sets from this table, and the
# CLI's plain parse and argparse parser read it unchanged.
OPTIONS = (
    ("--n", "n", int, 0, None, None),
    # or "gf:P" with P an odd prime below 2**31
    ("--field", "field", str, "rationals", None, None),
    ("--max-degree", "max_degree", int, 9, None, None),
    ("--delta-mode", "delta_mode", str, "solved", ("literal", "formula", "solved"), None),
    ("--homotopy", "homotopy", str, "default", None,
     "default | zero | file:PATH (serialised homotopy images)"),
    ("--output", "output", str, "text", ("text", "json", "markdown"), None),
    ("--out-path", "out_path", str, None, None, None),
)


class RunConfig:
    """A validated run configuration: one attribute per option of
    `OPTIONS`, by its dest, each defaulting to the table's default and
    checked on construction (ValueError on a bad value, TypeError on an
    unknown keyword or on a value not of the option's type, so no bool
    passes for an int and None only for a default of None)."""

    def __init__(self, **options):
        for _, dest, kind, default, choices, _ in OPTIONS:
            value = options.pop(dest, default)
            if type(value) is not kind and not (value is None and default is None):
                raise TypeError(f"{dest.replace('_', ' ')} must be {kind.__name__}, not {value!r}")
            if choices and value not in choices:
                raise ValueError(f"unknown {dest.replace('_', ' ')} {value!r}")
            setattr(self, dest, value)
        if options:
            raise TypeError(f"unknown run options {sorted(options)}")
        # for file:PATH, the parsed (images, star) and the sha256 of the file's bytes
        self.homotopy_data = self.homotopy_sha256 = None
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.max_degree < 2:
            raise ValueError("max-degree must be >= 2")
        homotopy, out_path = self.homotopy, self.out_path
        if homotopy not in ("default", "zero") and not homotopy.startswith("file:"):
            raise ValueError(f"unknown homotopy choice {homotopy!r}")
        field = self.field_object
        if out_path is not None:
            folder = os.path.dirname(out_path) or "."
            if not out_path or os.path.isdir(out_path) or not os.path.isdir(folder):
                raise ValueError(f"--out-path {out_path!r} names no file in an existing directory")
        if homotopy.startswith("file:"):
            self.homotopy_data, self.homotopy_sha256 = _read_homotopy_file(
                homotopy[5:], get_algebra(self.n, field)
            )

    @cached_property
    def field_object(self):
        """QQ for "rationals", GF(p) for "gf:<p>" with p in plain decimal,
        so each field has one spelling in the report."""
        if self.field == "rationals":
            return QQ
        p = self.field[3:]
        if not (self.field.startswith("gf:") and p.isascii() and p.isdigit() and p == str(int(p))):
            raise ValueError("field must be 'rationals' or 'gf:P' with P in plain decimal")
        return PrimeField(int(p))  # validates P an odd prime below 2**31

    def as_dict(self):
        """The options that decide what the report holds, by dest: all but
        `output` and `out_path`, which say where it goes."""
        skip = ("output", "out_path")
        config = {dest: getattr(self, dest) for _, dest, *_ in OPTIONS if dest not in skip}
        if self.homotopy_sha256 is not None:
            # the content, not the location, identifies the run
            config["homotopy"] = f"file:sha256:{self.homotopy_sha256}"
        return config


class Pipeline:
    def __init__(self, config):
        self.config = config
        self.algebra = get_algebra(config.n, config.field_object)
        self.resolution = Resolution(self.algebra)
        self.tensor = TensorComplex(self.resolution)
        self.diagonal = DiagonalMaps(self.resolution, self.tensor)
        self.hochschild = HochschildComplex(self.resolution)
        self.products = Products(self.hochschild, self.diagonal)
        # one family per mode; the literal one is the star product's
        self._families = {"literal": self.products.literal}

    def family(self, mode=None):
        """The diagonal family of the given mode, built once; it fills its
        degrees as they are read."""
        mode = mode or self.config.delta_mode
        if mode not in self._families:
            dm = self.diagonal
            if mode == "formula":
                fam = dm.corrected_family(self.family("literal"), self.homotopy_family())
            else:
                fam = dm.solved_family()
            self._families[mode] = fam
        return self._families[mode]

    def homotopy_family(self):
        dm = self.diagonal
        if self.config.homotopy == "default":
            return dm.default_homotopy()
        # zero on every generator and vertex the file does not list; "zero"
        # lists none
        images, star = self.config.homotopy_data or ({}, {})
        table = dm.per_label(lambda lab: images.get(label_index(lab), {}), upward=False)
        return HomotopyFamily(dm, table, star)

    @cached_property
    def _names(self):
        """The (str, repr) of the `Label` each label number stands for and of
        the `Path` each basis index stands for, built as terms are printed."""
        basis = self.algebra.basis
        return (
            Degrees(lambda g: _str_and_repr(generator_labels(g >> 3)[g & 7]), upward=False),
            Degrees(lambda i: _str_and_repr(basis[i]), upward=False),
        )

    def family_json(self, fam):
        """The serialised generator images of a diagonal family (or a
        homotopy) in degrees 0..max_degree."""
        field = self.algebra.field
        return [
            {
                "degree": m,
                "generator": str(lab),
                "terms": _terms_json(self._names, fam.images[m][label_index(lab)], field),
            }
            for m in range(self.config.max_degree + 1)
            for lab in generator_labels(m)
        ]


def _str_and_repr(obj):
    return str(obj), repr(obj)


def _terms_json(names, elem, field):
    """Serialised terms of a tensor element, sorted by the repr of their
    key decoded to `Label` and `Path` objects.  `names` holds the str and
    repr of each label number and path index (`Pipeline._names`).  The
    terms are sorted by the tuple of the five reprs: the repr of a tuple
    joins them by ", " in parentheses, and no repr here (a `NamedTuple`'s,
    whose first "(" closes at its end) is a proper prefix of another, so
    the two orders agree."""
    labels, paths = names
    keyed = []
    for (g1, g2, left, mid, right), c in elem.items():
        n1, n2, nl, nm, nr = labels[g1], labels[g2], paths[left], paths[mid], paths[right]
        row = {
            "bidegree": [g1 >> 3, g2 >> 3],
            "g1": n1[0],
            "g2": n2[0],
            "left": nl[0],
            "middle": nm[0],
            "right": nr[0],
            "coeff": field.format(c),
        }
        keyed.append(((n1[1], n2[1], nl[1], nm[1], nr[1]), row))
    keyed.sort(key=lambda kv: kv[0])
    return [row for _, row in keyed]


def _generator_label(text, degree=None):
    """The label named by `text`; it must be one of `generator_labels` of
    its degree, and of `degree` when that is given."""
    try:
        lab = parse_label(text)
        ok = degree in (None, lab.degree) and lab in generator_labels(lab.degree)
    except (IndexError, TypeError, ValueError):
        ok = False
    if not ok:
        where = "" if degree is None else f" of degree {degree}"
        raise ValueError(f"{text!r} is not a generator label{where}")
    return lab


def _basis_path(algebra, text):
    """The path named by `text`; it must be a normal-form basis path."""
    p = parse_path(text)
    if p not in algebra.basis_index:
        raise ValueError(f"{text!r} is not a basis path of the member n = {algebra.n}")
    return p


# a coefficient: an integer, optionally followed by /b or by " (mod p)"
_COEFF = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?(?: \(mod ([0-9]+)\))?")


def _terms_from_json(algebra, terms, total, origin):
    """The tensor element, keyed by label numbers and basis path indices,
    of serialised terms of total degree `total` in a row whose generator
    (or vertex) starts at `origin`.

    Raises ValueError on a term whose bidegree does not sum to `total`,
    whose paths are not basis paths of the member or do not meet the
    endpoints of its generators, whose left path does not start at
    `origin`, whose coefficient does not read as an element of the
    field, or whose generators and paths repeat an earlier term's.  A
    coefficient is an integer a in decimal digits with an optional
    leading minus, followed over Q by an optional /b with b > 0 and over
    GF(p) by an optional " (mod p)" naming the field's own p in plain
    decimal.  Q reads a/b as that fraction in any terms, and GF(p)
    reads a mod p.  So every coefficient `_terms_json` writes reads back
    as itself, and `4/2` over Q and `9` or `9 (mod 7)` over GF(7) all
    read as 2.  The right path may end anywhere: the published successor
    homotopy moves each generator's terminus one step along the quiver.
    """
    field, index = algebra.field, algebra.basis_index
    out, seen = {}, set()
    for t in terms:
        g1 = _generator_label(t["g1"])
        g2 = _generator_label(t["g2"])
        left, mid, right = (_basis_path(algebra, t[k]) for k in ("left", "middle", "right"))
        term = f"homotopy term ({g1}, {g2})"
        if g1.degree + g2.degree != total:
            raise ValueError(
                f"{term} has bidegree {g1.degree}+{g2.degree}; its row needs total degree {total}"
            )
        o1, t1 = label_pair(g1)
        o2, t2 = label_pair(g2)
        if left.target != o1:
            raise ValueError(f"{term}: left path {left} does not end at {o1}, the origin of {g1}")
        if left.source != origin:
            raise ValueError(
                f"{term}: left path {left} does not start at {origin}, its row's origin"
            )
        if (mid.source, mid.target) != (t1, o2):
            raise ValueError(f"{term}: middle path {mid} does not run from {t1} to {o2}")
        if right.source != t2:
            raise ValueError(
                f"{term}: right path {right} does not start at {t2}, the terminus of {g2}"
            )
        text = t["coeff"]
        spelled = _COEFF.fullmatch(text)
        if spelled is None:
            raise ValueError(f"coefficient {text!r} is not spelled as an integer or a/b")
        num, den, modulus = spelled.groups()
        if (modulus and (field is QQ or modulus != str(field.p))) or (den and field is not QQ):
            raise ValueError(f"coefficient {text!r} does not lie in {field!r}")
        try:
            c = Fraction(int(num), int(den or 1)) if field is QQ else int(num) % field.p
        except ZeroDivisionError as exc:
            raise ValueError(f"coefficient {text!r} has a zero denominator") from exc
        if field is QQ and c.denominator == 1:
            c = c.numerator  # an integral coefficient stays an int, as QQ makes them
        key = (label_index(g1), label_index(g2), index[left], index[mid], index[right])
        if key in seen:
            raise ValueError(f"{term} with paths {left}, {mid}, {right} is listed twice")
        seen.add(key)
        if c:
            out[key] = c
    return out


def _parse_homotopy(algebra, data):
    """Generator images {label number: element} and the vertex table
    {vertex: element}, both in index form.

    Raises ValueError on a degree that is not an int >= 0, a label that
    is not a generator of its degree, an unknown vertex, a generator or a
    vertex with two rows, or a malformed term (see `_terms_from_json`;
    vertex-table terms have bidegree (0, 0) and start at their vertex).
    """
    images = {}
    for row in data["images"]:
        m = row["degree"]
        if type(m) is not int or m < 0:
            raise ValueError(f"homotopy degree {m!r} is not an integer >= 0")
        lab = _generator_label(row["generator"], m)
        g = label_index(lab)
        if g in images:
            raise ValueError(f"homotopy generator {lab} has two rows")
        images[g] = _terms_from_json(algebra, row["terms"], m + 1, label_pair(lab)[0])
    star = {}
    for row in data.get("star", []):
        v = row["vertex"]
        if v not in VERTICES:
            raise ValueError(f"unknown vertex {v!r} in the homotopy star table")
        if v in star:
            raise ValueError(f"vertex {v!r} has two rows in the homotopy star table")
        star[v] = _terms_from_json(algebra, row["terms"], 0, v)
    return images, star


def _read_homotopy_file(path, algebra):
    """The parsed (images, star) of a serialised homotopy (see
    `_parse_homotopy`) and the sha256 of the file's bytes.

    Raises ValueError when the file cannot be read or does not parse as a
    homotopy for `algebra`.
    """
    import hashlib  # on use: loading it adds ~0.4 MB to every run's peak memory

    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read homotopy file {path!r}: {exc.strerror}") from exc
    try:
        data = json.loads(raw)
    except RecursionError as exc:
        raise ValueError(f"homotopy file {path!r} is nested too deeply to parse") from exc
    except ValueError as exc:
        raise ValueError(f"homotopy file {path!r} is not JSON: {exc}") from exc
    try:
        parsed = _parse_homotopy(algebra, data)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed homotopy file {path!r}: {exc!r}") from exc
    except ValueError as exc:
        raise ValueError(f"malformed homotopy file {path!r}: {exc}") from exc
    return parsed, hashlib.sha256(raw).hexdigest()

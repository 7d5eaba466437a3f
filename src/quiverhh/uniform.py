"""Uniform path families and the generator labels of the resolution.

Each degree m carries a finite set of labelled uniform elements of the
free path algebra (no quotient relations applied: from degree 2 on these
elements generate the ideal, so reducing them would collapse them to
zero).  The label determines a (origin, terminus) vertex pair, and within
its degree the pair determines the label (`label_at`); the pairs repeat
with period 3 in the degree, except that degree 0 omits the two mixed
pairs and has only four labels.

Degrees 0..2 are given by explicit lists; higher degrees are produced by
the period-6 recursion, each degree from the previous one.  The degree-1
step of the S and T families would need mixed-pair degree-0 inputs that
do not exist, which is why those two lists are explicit.

`Degrees` is the package's one per-degree cache: every table of data
kept per degree of the resolution (shapes, bases, matrices, cochain
data, diagonal images) is one, filled the first time a degree is read.
The same table keeps the rows of the algebra's index product table and
the printed names of label numbers and path indices.
"""

from __future__ import annotations

from typing import NamedTuple

from .linalg import accumulate, axpy
from .quiver import Path, a_cycle, arrow, compose, trivial


class Label(NamedTuple):
    degree: int
    family: str  # 'R', 'S', 'T', 'U'
    sub: int | None  # 0/1 for the doubled families, else None

    def __str__(self):
        suffix = "" if self.sub is None else f"_{self.sub}"
        return f"{self.family}{self.degree}{suffix}"


def parse_label(text):
    """Inverse of str(Label): 'R3_0' -> Label(3, 'R', 0)."""
    fam = text[0]
    rest = text[1:]
    if "_" in rest:
        deg, sub = rest.split("_")
        return Label(int(deg), fam, int(sub))
    return Label(int(rest), fam, None)


_PAIRS_DEG0 = {
    ("R", None): ("e0", "e0"),
    ("S", None): ("e1", "e1"),
    ("T", None): ("f1", "f1"),
    ("U", None): ("e2", "e2"),
}
_PAIRS_MOD3 = {
    0: {
        ("R", None): ("e0", "e0"),
        ("S", 0): ("e1", "e1"),
        ("S", 1): ("e1", "f1"),
        ("T", 0): ("f1", "e1"),
        ("T", 1): ("f1", "f1"),
        ("U", None): ("e2", "e2"),
    },
    1: {
        ("R", 0): ("e0", "e1"),
        ("R", 1): ("e0", "f1"),
        ("S", None): ("e1", "e2"),
        ("T", None): ("f1", "e2"),
        ("U", None): ("e2", "e0"),
    },
    2: {
        ("R", None): ("e0", "e2"),
        ("S", None): ("e1", "e0"),
        ("T", None): ("f1", "e0"),
        ("U", 0): ("e2", "e1"),
        ("U", 1): ("e2", "f1"),
    },
}
_INVERSE_DEG0 = {pair: key for key, pair in _PAIRS_DEG0.items()}
_INVERSE_MOD3 = {r: {pair: key for key, pair in t.items()} for r, t in _PAIRS_MOD3.items()}


def generator_labels(m):
    """Ordered generator labels of degree m (4 at m = 0, else 6/5/5); the
    key order of the pair tables is the presentation order."""
    if m < 0:
        raise ValueError("degree must be >= 0")
    pairs = _PAIRS_DEG0 if m == 0 else _PAIRS_MOD3[m % 3]
    return tuple(Label(m, fam, sub) for fam, sub in pairs)


_POSITION_DEG0 = {key: i for i, key in enumerate(_PAIRS_DEG0)}
_POSITION_MOD3 = {r: {key: i for i, key in enumerate(t)} for r, t in _PAIRS_MOD3.items()}


def label_index(label):
    """The label's number: 8 * degree + its position in
    `generator_labels(degree)`, so the degree is `index >> 3` and the
    position `index & 7`."""
    m = label.degree
    positions = _POSITION_DEG0 if m == 0 else _POSITION_MOD3[m % 3]
    return 8 * m + positions[(label.family, label.sub)]


class Degrees(dict):
    """{degree: value}; a missing degree is built by `fill(m)` when first
    read, and kept.  With `upward`, a degree is built from the ones below
    it, so a read builds the missing lower degrees first, in order, and no
    read recurses down the degrees.  Without `upward` the keys may be any
    numbers, such as the path indices of `FamilyAlgebra.product_rows`."""

    def __init__(self, fill, upward):
        super().__init__()
        self._fill = fill
        self._upward = upward

    def __missing__(self, m):
        for k in range(m + 1) if self._upward else (m,):
            if k not in self:
                self[k] = self._fill(k)
        return self[m]


def label_pair(label):
    """(origin, terminus) of the label's uniform element."""
    if label.degree == 0:
        return _PAIRS_DEG0[(label.family, label.sub)]
    return _PAIRS_MOD3[label.degree % 3][(label.family, label.sub)]


def label_at(m, origin, terminus):
    """The degree-m label whose pair is (origin, terminus), or None when
    no generator has that pair: the inverse of `label_pair`."""
    key = (_INVERSE_DEG0 if m == 0 else _INVERSE_MOD3[m % 3]).get((origin, terminus))
    return None if key is None else Label(m, *key)


def _fmul(elem, p):
    """Right-multiply a formal path combination by a path, in the free algebra."""
    assert all(q.target == p.source for q in elem), "ill-composed word in the uniform recursion"
    return accumulate(((compose(q, p), c) for q, c in elem.items()), 0)


class UniformPaths:
    """The labelled families for one value of n, built degree by degree."""

    def __init__(self, n):
        self.n = n
        g0 = {
            Label(0, "R", None): {trivial("e0"): 1},
            Label(0, "S", None): {trivial("e1"): 1},
            Label(0, "T", None): {trivial("f1"): 1},
            Label(0, "U", None): {trivial("e2"): 1},
        }
        g1 = {
            Label(1, "R", 0): {arrow("a0"): 1},
            Label(1, "R", 1): {arrow("b0"): 1},
            Label(1, "S", None): {arrow("a1"): 1},
            Label(1, "T", None): {arrow("b1"): 1},
            Label(1, "U", None): {arrow("a2"): 1},
        }
        g2 = {
            Label(2, "R", None): {a_cycle(0, 3 * n + 2): 1, Path("e0", ("b0", "b1")): -1},
            Label(2, "S", None): {a_cycle(1, 3 * n + 2): 1},
            Label(2, "T", None): {Path("f1", ("b1", "a2")): 1},
            Label(2, "U", 0): {a_cycle(2, 3 * n + 2): 1},
            Label(2, "U", 1): {Path("e2", ("a2", "b0")): 1},
        }
        self._families = [g0, g1, g2]

    def family(self, m):
        while len(self._families) <= m:
            self._families.append(self._step(len(self._families)))
        return self._families[m]

    def element(self, label):
        return self.family(label.degree)[label]

    def _step(self, m):
        assert m >= 3
        n = self.n
        prev = self._families[m - 1]

        def pv(fam, sub=None):
            return prev[Label(m - 1, fam, sub)]

        a0, a1, a2, b0, b1 = (arrow(t) for t in ("a0", "a1", "a2", "b0", "b1"))
        long0 = a_cycle(0, 3 * n + 1)  # (a0 a1 a2)^n a0
        long1 = a_cycle(1, 3 * n + 1)  # (a1 a2 a0)^n a1
        long2 = a_cycle(2, 3 * n + 1)  # (a2 a0 a1)^n a2
        r = m % 6
        out = {}
        if r == 1:
            out[Label(m, "R", 0)] = _fmul(pv("R"), a0)
            out[Label(m, "R", 1)] = _fmul(pv("R"), b0)
            out[Label(m, "S", None)] = axpy(_fmul(pv("S", 0), a1), -1, _fmul(pv("S", 1), b1), 0)
            out[Label(m, "T", None)] = axpy(_fmul(pv("T", 0), long1), -1, _fmul(pv("T", 1), b1), 0)
            out[Label(m, "U", None)] = _fmul(pv("U"), a2)
        elif r == 2:
            out[Label(m, "R", None)] = axpy(_fmul(pv("R", 0), long1), -1, _fmul(pv("R", 1), b1), 0)
            out[Label(m, "S", None)] = _fmul(pv("S"), long2)
            out[Label(m, "T", None)] = _fmul(pv("T"), a2)
            out[Label(m, "U", 0)] = _fmul(pv("U"), long0)
            out[Label(m, "U", 1)] = _fmul(pv("U"), b0)
        elif r == 3:
            out[Label(m, "R", None)] = _fmul(pv("R"), a2)
            out[Label(m, "S", 0)] = _fmul(pv("S"), a0)
            out[Label(m, "S", 1)] = _fmul(pv("S"), b0)
            out[Label(m, "T", 0)] = _fmul(pv("T"), long0)
            out[Label(m, "T", 1)] = _fmul(pv("T"), b0)
            out[Label(m, "U", None)] = axpy(_fmul(pv("U", 0), a1), -1, _fmul(pv("U", 1), b1), 0)
        elif r == 4:
            out[Label(m, "R", 0)] = _fmul(pv("R"), long0)
            out[Label(m, "R", 1)] = _fmul(pv("R"), b0)
            out[Label(m, "S", None)] = axpy(_fmul(pv("S", 0), a1), -1, _fmul(pv("S", 1), b1), 0)
            out[Label(m, "T", None)] = axpy(_fmul(pv("T", 0), a1), -1, _fmul(pv("T", 1), b1), 0)
            out[Label(m, "U", None)] = _fmul(pv("U"), long2)
        elif r == 5:
            out[Label(m, "R", None)] = axpy(_fmul(pv("R", 0), a1), -1, _fmul(pv("R", 1), b1), 0)
            out[Label(m, "S", None)] = _fmul(pv("S"), a2)
            # the printed step has an ill-composed word here; the composable
            # version with the same endpoints is (a2 a0 a1)^n a2
            out[Label(m, "T", None)] = _fmul(pv("T"), long2)
            out[Label(m, "U", 0)] = _fmul(pv("U"), a0)
            out[Label(m, "U", 1)] = _fmul(pv("U"), b0)
        else:  # r == 0, m >= 6
            out[Label(m, "R", None)] = _fmul(pv("R"), long2)
            out[Label(m, "S", 0)] = _fmul(pv("S"), long0)
            out[Label(m, "S", 1)] = _fmul(pv("S"), b0)
            out[Label(m, "T", 0)] = _fmul(pv("T"), a0)
            out[Label(m, "T", 1)] = _fmul(pv("T"), b0)
            out[Label(m, "U", None)] = axpy(_fmul(pv("U", 0), a1), -1, _fmul(pv("U", 1), b1), 0)
        assert set(out) == set(generator_labels(m))
        return out

    def endpoints(self, label):
        """Common (origin, terminus) of the element's monomials."""
        elem = self.element(label)
        pairs = {(p.source, p.target) for p in elem}
        assert len(pairs) == 1, f"{label} is not uniform"
        return next(iter(pairs))

"""The generator labels of the resolution and the per-degree cache.

The paper names the generators of each degree m by labelled uniform
elements of the free path algebra; `resolution.boundary_shape`
transcribes their boundaries, and no command needs the elements
themselves (the tests rebuild them, see `tests/conftest.py`).  A label
is a degree, a family R, S, T or U and, for a doubled family, a
sub-index 0 or 1 (`generator_labels(m)`).  It determines a (origin,
terminus) vertex pair, and within its degree the pair determines the
label (`label_at`); the pairs repeat with period 3 in the degree, except
that degree 0 omits the two mixed pairs and has only four labels.

`Degrees` is the package's one per-degree cache: every table of data
kept per degree of the resolution (shapes, bases, matrices, cochain
data, diagonal images) is one, filled the first time a degree is read.
The same table keeps the rows of the algebra's index product table, the
printed names of label numbers and path indices, and the labels of each
degree.
"""

from __future__ import annotations

from typing import NamedTuple


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
    key order of the pair tables is the presentation order.  The tuple of
    a degree is built once and shared by every call."""
    if m < 0:
        raise ValueError("degree must be >= 0")
    return _LABELS[m]


def _labels_at(m):
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


_LABELS = Degrees(_labels_at, upward=False)


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


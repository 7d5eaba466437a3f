"""The fixed four-vertex quiver and its paths.

Vertices are e0, e1, f1, e2.  The alias vertices f0 = e0 and f2 = e2 and
the alias arrow b2 = a2 exist only at the parsing surface; internally
everything is stored in the four/five canonical names.  Arrows:

    a0: e0 -> e1    a1: e1 -> e2    a2: e2 -> e0   (the 3-cycle)
    b0: e0 -> f1    b1: f1 -> e2                   (the detour)

Paths concatenate left to right and sort by `path_sort_key`.  Nothing
here enumerates paths: the algebra's basis walk and its oracle's list of
all short paths (`algebra.py`) extend paths arrow by arrow.
"""

from __future__ import annotations

from typing import NamedTuple

VERTICES = ("e0", "e1", "f1", "e2")
VERTEX_ORDER = {v: i for i, v in enumerate(VERTICES)}

ARROWS = ("a0", "a1", "a2", "b0", "b1")
ARROW_SOURCE = {"a0": "e0", "a1": "e1", "a2": "e2", "b0": "e0", "b1": "f1"}
ARROW_TARGET = {"a0": "e1", "a1": "e2", "a2": "e0", "b0": "f1", "b1": "e2"}

_VERTEX_ALIASES = {"f0": "e0", "f2": "e2"}
_ARROW_ALIASES = {"b2": "a2"}


def resolve_vertex(name):
    name = _VERTEX_ALIASES.get(name, name)
    if name not in VERTEX_ORDER:
        raise ValueError(f"unknown vertex {name!r}")
    return name


def resolve_arrow(name):
    name = _ARROW_ALIASES.get(name, name)
    if name not in ARROW_SOURCE:
        raise ValueError(f"unknown arrow {name!r}")
    return name


class Path(NamedTuple):
    """A directed path: a source vertex and a composable arrow word."""

    source: str
    arrows: tuple

    @property
    def target(self):
        return ARROW_TARGET[self.arrows[-1]] if self.arrows else self.source

    def is_vertex(self):
        return not self.arrows

    def __str__(self):
        return "*".join(self.arrows) if self.arrows else self.source


def trivial(v):
    return Path(resolve_vertex(v), ())


def arrow(tag):
    tag = resolve_arrow(tag)
    return Path(ARROW_SOURCE[tag], (tag,))


def well_formed(p):
    at = p.source
    for t in p.arrows:
        if ARROW_SOURCE[t] != at:
            return False
        at = ARROW_TARGET[t]
    return True


def compose(p, q):
    """Concatenation p*q, or None when the endpoints do not match."""
    if p.target != q.source:
        return None
    if not q.arrows:
        return p
    if not p.arrows:
        return q
    return Path(p.source, p.arrows + q.arrows)


_cycles = {}  # {(i mod 3, length): path}, filled by `a_cycle`


def a_cycle(i, length):
    """The a-arrow path of the given length starting at e_{i mod 3}.

    Each path is built once and then shared: the boundary shapes of
    every degree split the same few cycle words."""
    key = (i % 3, length)
    path = _cycles.get(key)
    if path is None:
        i = key[0]
        arrows = tuple(f"a{(i + k) % 3}" for k in range(length))
        path = _cycles[key] = Path(f"e{i}", arrows)
    return path


def path_sort_key(p):
    """Length, then source vertex in e0 < e1 < f1 < e2, then arrow word."""
    return (len(p.arrows), VERTEX_ORDER[p.source], p.arrows)


def parse_path(text):
    """Parse "a0*a1" or "e0" (aliases f0, f2, b2 accepted)."""
    text = text.strip()
    if "*" not in text and (text.startswith("e") or text.startswith("f")):
        return trivial(text)
    parts = [resolve_arrow(t.strip()) for t in text.split("*")]
    p = Path(ARROW_SOURCE[parts[0]], tuple(parts))
    if not well_formed(p):
        raise ValueError(f"ill-composed path {text!r}")
    return p

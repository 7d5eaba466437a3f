"""Exact sparse vectors and elimination over the rationals or a prime field.

A sparse vector is a dict {key: coeff} with no zero coefficient stored.
`accumulate` and `axpy` are the one place in the package where sparse
sums are formed: every layer builds its vectors with them.

One engine, `SparseEchelon`, does all the elimination in the package.
It takes sparse vectors {index: coeff} in order and keeps them in
echelon form.  `rank`, `kernel_basis` and `LinearSolver` insert the
columns of a sparse `Matrix` one by one, so the pivot columns are
exactly those of the reduced row echelon form: particular solutions set
every free variable to zero, and kernel vectors are listed by
increasing free-column index.

Coefficients over Q are ints until a non-unit pivot divides them, and
`fractions.Fraction` values from then on; the two compare, hash and
print alike, so a report cannot tell which one a value is.  The echelon
divides only by a non-unit pivot, and then through `Fraction`, so no
float can arise.  Over GF(p) coefficients are `GFElement` values.  All
of them support the arithmetic operators and truth-testing, so the
elimination code never needs to know which field it is working over.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class GFElement:
    """An element of GF(p).  Immutable, normalised to 0 <= v < p."""

    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def _coerce(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other.v
        if isinstance(other, int):
            return other % self.p
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return GFElement(self.p, self.v + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return GFElement(self.p, self.v - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return GFElement(self.p, v - self.v)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return GFElement(self.p, self.v * v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        if v == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return GFElement(self.p, self.v * pow(v, self.p - 2, self.p))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        if self.v == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return GFElement(self.p, v * pow(self.v, self.p - 2, self.p))

    def __neg__(self):
        return GFElement(self.p, -self.v)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v} (mod {self.p})"


class Rationals:
    """The field of rationals; elements are ints, or Fractions in lowest
    terms once a division has made them."""

    name = "QQ"

    def one(self):
        return 1

    def zero(self):
        return 0

    def from_int(self, k):
        return k

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for an odd prime p (characteristic 2 is rejected)."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is not supported")
        self.p = p
        self.name = f"GF({p})"

    def one(self):
        return GFElement(self.p, 1)

    def zero(self):
        return GFElement(self.p, 0)

    def from_int(self, k):
        return GFElement(self.p, k)

    def __repr__(self):
        return self.name


QQ = Rationals()


def accumulate(terms):
    """The sparse vector summing the (key, coeff) pairs of `terms`."""
    out = {}
    get = out.get
    for k, c in terms:
        acc = get(k)
        out[k] = c if acc is None else acc + c
    if all(out.values()):
        return out
    return {k: c for k, c in out.items() if c}


def axpy(out, c, x):
    """out += c * x for sparse vectors, in place; returns out."""
    if not c:
        return out
    get = out.get
    pairs = x.items() if c == 1 else ((k, c * v) for k, v in x.items())
    for k, v in pairs:
        acc = get(k)
        acc = v if acc is None else acc + v
        if acc:
            out[k] = acc
        else:
            out.pop(k, None)
    return out


@dataclass
class Matrix:
    """Sparse matrix: `entries` holds the nonzero (row, col, coeff) triples."""

    rows: int
    cols: int
    entries: list

    def columns(self):
        """The columns as sparse vectors {row: coeff}, in column order."""
        out = [{} for _ in range(self.cols)]
        for i, j, c in self.entries:
            out[j][i] = c
        return out


class SparseEchelon:
    """Incremental echelon form of sparse vectors {index: coeff} over a field.

    Each stored row is keyed by its leading (smallest) index, where its
    coefficient is 1; every other index of a row is larger.  With
    track=True each row also records the combination {tag: coeff} of the
    inserted vectors that it equals, so the echelon can express any
    vector of its span in terms of what was inserted.
    """

    def __init__(self, track=False):
        self.rows = {}
        self.combos = {} if track else None

    def _subtract(self, vec, f, lead, combo):
        """vec -= f * row[lead], in place; combo += f * combo of that row."""
        axpy(vec, -f, self.rows[lead])
        if combo is not None:
            axpy(combo, f, self.combos[lead])

    def _eliminate(self, vec, combo=None):
        """Reduce vec in place until its leading index has no row.

        This decides membership: vec ends empty exactly when it lay in
        the span.  Afterwards the original vec equals what is left plus
        the combination collected in `combo`.
        """
        while vec:
            lead = min(vec)
            if lead not in self.rows:
                break
            self._subtract(vec, vec[lead], lead, combo)
        return vec

    def reduce(self, vec):
        """Fully reduced residual of vec: zero at every leading index, so
        two vectors that differ by an element of the span reduce alike."""
        vec = dict(vec)
        for lead in sorted(self.rows):
            f = vec.get(lead)
            if f:
                self._subtract(vec, f, lead, None)
        return vec

    def add(self, vec, tag=None):
        """Insert vec (under `tag` when tracking).  Returns the new row's
        leading index, or None when vec already lies in the span."""
        combo = None if self.combos is None else {}
        res = self._eliminate(dict(vec), combo)
        if not res:
            return None
        lead = min(res)
        inv = res[lead]  # a pivot of ±1 is its own inverse
        if inv == 1:
            row = res
        elif inv == -1:
            row = {j: -c for j, c in res.items()}
        else:
            inv = Fraction(1, inv) if type(inv) is int else 1 / inv
            row = {j: c * inv for j, c in res.items()}
        self.rows[lead] = row
        if combo is not None:
            # res = vec - sum(combo), so the row is inv * (vec - sum(combo))
            row_combo = {t: -c * inv for t, c in combo.items()}
            row_combo[tag] = inv
            self.combos[lead] = row_combo
        return lead

    def express(self, vec):
        """{tag: coeff}, sorted by tag, with vec = sum of coeff times the
        vector inserted under tag; None when vec is outside the span."""
        combo = {}
        if self._eliminate(dict(vec), combo):
            return None
        return dict(sorted(combo.items()))

    @property
    def rank(self):
        return len(self.rows)


def _column_echelon(a, track=False):
    ech = SparseEchelon(track)
    for j, col in enumerate(a.columns()):
        ech.add(col, j)
    return ech


def rank(m):
    return _column_echelon(m).rank


def kernel_basis(a, field=QQ):
    """Basis of the right kernel as sparse vectors {col: coeff}: one per
    free column, in order, with 1 there and support otherwise on the
    pivot columns before it."""
    ech = SparseEchelon(track=True)
    basis = []
    for j, col in enumerate(a.columns()):
        if ech.add(col, j) is None:
            v = {t: -c for t, c in ech.express(col).items()}
            v[j] = field.one()
            basis.append(v)
    return basis


class LinearSolver:
    """Echelonise the columns of a matrix once, then solve many right-hand
    sides.  Right-hand sides and solutions are sparse vectors."""

    def __init__(self, a):
        self.echelon = _column_echelon(a, track=True)

    def solve(self, b):
        """The solution {col: value} of a*x = b supported on the pivot
        columns (free variables zero), or None if inconsistent."""
        return self.echelon.express(b)

"""Exact sparse vectors and elimination over the rationals or a prime field.

A sparse vector is a dict {key: coeff} with no zero coefficient stored.
`accumulate` and `axpy` form the package's sparse sums: every layer
builds its vectors with them.  Each takes the characteristic p of the
field (0 for Q) and reduces mod p when p is not 0; it has no default, so
a sum cannot forget to reduce.  The loops that run once per term of the
solved diagonal (`diagonal._extend`, `DiagonalMaps._solve_boundary` and
`OneSidedContraction._solve`) each hand all their terms to one
`accumulate`, with no intermediate vector per term.  The two loops that
run once per matrix entry, `SparseEchelon.eliminate` and
`Resolution._boundary_matrix`, sum in place instead, in the same order
and with the same reduction.

One engine, `SparseEchelon`, does all the elimination in the package.
It takes sparse vectors {index: coeff} in order and keeps them in
echelon form.  A `Matrix` is its list of sparse columns {row: coeff},
as the callers build them.  `rank`, `kernel_basis` and `LinearSolver`
hand the whole list to one pass, `SparseEchelon.eliminate`, which
inserts the columns in order, so the pivot columns are exactly those
of the reduced row echelon form: particular solutions set every free
variable to zero, and kernel vectors are listed by increasing
free-column index.  `kernel_basis` also returns its echelon, so one
elimination gives both a map's kernel and its image.  `add` (one
vector) and `express` go through the same pass; `reduce`, the full
reduction of `class_residual`, also subtracts pivot rows, through
`axpy`.  The pass skips an empty vector and calls a vector equal to
the row at its leading index dependent, with nothing subtracted; it
copies a vector only before its first subtraction, so no vector passed
in is ever written into.  A vector is handed over: over Q one that
needs no subtraction and leads with 1 becomes its row as it is, so no
caller writes into a vector once it has passed it in.

Coefficients over Q are ints until a non-unit pivot divides them, and
`fractions.Fraction` values from then on; the two compare, hash and
print alike, so a report cannot tell which one a value is.  The echelon
divides only by a non-unit pivot, and then through `Fraction`, so no
float can arise.  Over GF(p) coefficients are the ints 1..p-1, and the
echelon inverts a pivot with `pow(c, -1, p)`.  A coefficient is printed
only in a report, through its field's `format`.
"""

from __future__ import annotations

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


class Rationals:
    """The field of rationals; elements are ints, or Fractions in lowest
    terms once a division has made them."""

    name = "QQ"
    p = 0

    def format(self, c):
        return str(c)

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for an odd prime p < 2**31 (characteristic 2 is rejected, and
    the bound keeps the trial division of `_is_prime` short); elements are
    the ints 1..p-1, and 0 is never stored."""

    def __init__(self, p):
        if p >= 2**31:
            raise ValueError(f"{p} is too large: GF(p) needs p < 2**31")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is not supported")
        self.p = p
        self.name = f"GF({p})"

    def format(self, c):
        return f"{c} (mod {self.p})"

    def __repr__(self):
        return self.name


QQ = Rationals()


def accumulate(terms, p):
    """The sparse vector summing the (key, coeff) pairs of `terms`, with
    coefficients reduced mod p when p is not 0."""
    out = {}
    get = out.get
    for k, c in terms:
        acc = get(k)
        out[k] = c if acc is None else acc + c
    if p:
        return {k: r for k, c in out.items() if (r := c % p)}
    if all(out.values()):
        return out
    return {k: c for k, c in out.items() if c}


def axpy(out, c, x, p):
    """out += c * x for sparse vectors, in place, reduced mod p when p is
    not 0; returns out."""
    if p:
        c %= p
    if not c:
        return out
    get = out.get
    pairs = x.items() if c == 1 else ((k, c * v) for k, v in x.items())
    for k, v in pairs:
        acc = get(k)
        acc = v if acc is None else acc + v
        if p:
            acc %= p
        if acc:
            out[k] = acc
        else:
            out.pop(k, None)
    return out


class Matrix:
    """Sparse matrix kept as its columns: `columns[j]` is the sparse
    vector {row: coeff} of column j, with no zero stored."""

    def __init__(self, rows, columns):
        self.rows = rows
        self.columns = columns

    @property
    def cols(self):
        return len(self.columns)

    @property
    def entries(self):
        """The nonzero (row, col, coeff) triples, column by column."""
        return [(i, j, c) for j, col in enumerate(self.columns) for i, c in col.items()]


class SparseEchelon:
    """Incremental echelon form of sparse vectors {index: coeff} over Q
    (p = 0) or GF(p).

    Each stored row is keyed by its leading (smallest) index, where its
    coefficient is 1; every other index of a row is larger.  With
    track=True each row also records the combination {tag: coeff} of the
    inserted vectors that it equals, so the echelon can express any
    vector of its span in terms of what was inserted.
    """

    def __init__(self, p, track=False):
        self.p = p
        self.rows = {}
        self.combos = {} if track else None

    def eliminate(self, items, insert=True, dependent=None):
        """Eliminate each vector of the (tag, vector) pairs `items`, in
        order, against the rows so far; with `insert` the residual of a
        vector outside the span becomes a new row, normalised to lead with
        1.  Returns the residual's leading index for the last vector, or
        None when it lay in the span.  When tracking, a `dependent` list
        receives (tag, combination of the inserted vectors it equals) for
        each vector in the span; the combination may be a stored one, so
        it is only to be read.

        A pivot row is subtracted entry by entry in the row's order (`reduce`
        uses `axpy`), with the sum reduced mod p when p is not 0.  An
        empty vector costs nothing, and a vector equal to the row stored at
        its leading index is dependent with nothing subtracted.  A vector
        is copied before its first subtraction, so none passed in is
        written into; over Q one that needs no subtraction and leads with
        1 becomes its row as it is, and must not be written into later.
        """
        rows, combos, p = self.rows, self.combos, self.p
        lead = None
        for tag, vec in items:
            combo = None
            if not vec:
                lead = None
                if dependent is not None:
                    dependent.append((tag, {}))
                continue
            lead = min(vec)
            row = rows.get(lead)
            if row is not None:
                if row == vec:
                    if dependent is not None:
                        dependent.append((tag, combos[lead]))
                    lead = None
                    continue
                if combos is not None:
                    combo = {}
                vec = dict(vec)
                get = vec.get
                while True:
                    f = vec[lead]
                    c = -f % p if p else -f
                    for k, v in row.items():
                        acc = get(k)
                        acc = c * v if acc is None else acc + c * v
                        if p:
                            acc %= p
                        if acc:
                            vec[k] = acc
                        else:
                            del vec[k]
                    if combo is not None:
                        axpy(combo, f, combos[lead], p)
                    if not vec:
                        lead = None
                        break
                    lead = min(vec)
                    row = rows.get(lead)
                    if row is None:
                        break
                if lead is None:
                    if dependent is not None:
                        dependent.append((tag, combo))
                    continue
            if not insert:
                continue
            inv = vec[lead]
            if p:
                # entries the elimination did not touch may be unreduced
                inv = pow(inv, -1, p)
                row = {j: c * inv % p for j, c in vec.items()}
            elif inv == 1:  # a pivot of ±1 is its own inverse
                row = vec
            elif inv == -1:
                row = {j: -c for j, c in vec.items()}
            else:
                inv = Fraction(1, inv) if type(inv) is int else 1 / inv
                row = {j: c * inv for j, c in vec.items()}
            rows[lead] = row
            if combos is not None:
                # vec = inserted - sum(combo), so the row is inv * that
                row_combo = axpy({}, -inv, combo, p) if combo else {}
                row_combo[tag] = inv
                combos[lead] = row_combo
        return lead

    def reduce(self, vec):
        """Fully reduced residual of vec: zero at every leading index, so
        two vectors that differ by an element of the span reduce alike."""
        vec = dict(vec)
        for lead in sorted(self.rows):
            f = vec.get(lead)
            if f:
                axpy(vec, -f, self.rows[lead], self.p)
        return vec

    def add(self, vec, tag=None):
        """Insert vec (under `tag` when tracking).  Returns the new row's
        leading index, or None when vec already lies in the span."""
        return self.eliminate(((tag, vec),))

    def express(self, vec):
        """{tag: coeff}, sorted by tag, with vec = sum of coeff times the
        vector inserted under tag; None when vec is outside the span."""
        found = []
        self.eliminate(((None, vec),), False, found)
        return dict(sorted(found[0][1].items())) if found else None

    @property
    def rank(self):
        return len(self.rows)


def _column_echelon(a, p, track=False):
    ech = SparseEchelon(p, track)
    ech.eliminate(enumerate(a.columns))
    return ech


def rank(m, p):
    return _column_echelon(m, p).rank


def kernel_basis(a, p):
    """(kernel, echelon) of one pass over the columns: a basis of the right
    kernel as sparse vectors {col: coeff}, one per free column, in order,
    with 1 there and support otherwise on the pivot columns before it; and
    the tracked echelon of the columns, whose rows span the image."""
    ech = SparseEchelon(p, track=True)
    dependent = []
    ech.eliminate(enumerate(a.columns), dependent=dependent)
    kernel = []
    for j, combo in dependent:
        v = accumulate(((k, -c) for k, c in sorted(combo.items())), p)
        v[j] = 1
        kernel.append(v)
    return kernel, ech


class LinearSolver:
    """Echelonise the columns of a matrix once, then solve many right-hand
    sides.  Right-hand sides and solutions are sparse vectors."""

    def __init__(self, a, p):
        self.echelon = _column_echelon(a, p, track=True)

    def solve(self, b):
        """The solution {col: value} of a*x = b supported on the pivot
        columns (free variables zero), or None if inconsistent."""
        return self.echelon.express(b)

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhh.algebra import get_algebra
from quiverhh.linalg import (
    QQ,
    LinearSolver,
    Matrix,
    PrimeField,
    SparseEchelon,
    accumulate,
    axpy,
    kernel_basis,
    rank,
)
from quiverhh.resolution import Resolution


def mat(rows, ncols=None, p=0):
    """Sparse matrix from dense integer rows, reduced mod p when p is not 0."""
    ncols = len(rows[0]) if rows else ncols
    columns = [
        {i: c for i, row in enumerate(rows) if (c := row[j] % p if p else row[j])}
        for j in range(ncols)
    ]
    return Matrix(len(rows), columns)


def identity(n):
    return mat([[int(i == j) for j in range(n)] for i in range(n)])


def mat_vec(m, x):
    """m * x for a sparse vector x, as a sparse vector."""
    out = {}
    for i, j, c in m.entries:
        if j in x:
            out[i] = out.get(i, 0) + c * x[j]
    return {i: c for i, c in out.items() if c}


def row_echelon(m):
    ech = SparseEchelon(0)
    rows = [{} for _ in range(m.rows)]
    for i, j, c in m.entries:
        rows[i][j] = c
    for row in rows:
        ech.add(row)
    return ech


def pivot_columns(m):
    """Columns independent of the columns before them (the RREF pivots)."""
    out = []
    for j in range(m.cols):
        left = Matrix(m.rows, m.columns[: j + 1])
        if rank(left, 0) > len(out):
            out.append(j)
    return out


def test_rref_identity():
    m = identity(2)
    ech = row_echelon(m)
    assert ech.rows == {0: {0: 1}, 1: {1: 1}}
    assert rank(m, 0) == 2 and pivot_columns(m) == [0, 1]


def test_rref_zero():
    m = mat([[0, 0, 0]] * 3)
    assert row_echelon(m).rows == {}
    assert rank(m, 0) == 0 and pivot_columns(m) == []


def test_rref_rank_one():
    # hand row-reduction: second row is twice the first
    m = mat([[1, 2], [2, 4]])
    assert row_echelon(m).rows == {0: {0: 1, 1: 2}}
    assert rank(m, 0) == 1


def test_solve_identity():
    b = {0: Fraction(5), 1: Fraction(-1), 2: Fraction(7)}
    assert LinearSolver(identity(3), 0).solve(b) == b


def test_solve_free_variable_zeroed():
    x = LinearSolver(mat([[1, 1]]), 0).solve({0: Fraction(2)})
    assert x == {0: Fraction(2)}


def test_solve_inconsistent():
    assert LinearSolver(mat([[0]]), 0).solve({0: Fraction(1)}) is None


def test_linear_solver_many_right_hand_sides():
    # x + 2y = b0, z = b1: y is free and stays zero
    ls = LinearSolver(mat([[1, 2, 0], [0, 0, 1]]), 0)
    assert ls.solve({0: Fraction(3), 1: Fraction(4)}) == {0: Fraction(3), 2: Fraction(4)}
    assert ls.solve({1: Fraction(-1)}) == {2: Fraction(-1)}
    assert ls.solve({}) == {}


def test_kernel_of_identity_empty():
    assert kernel_basis(identity(4), 0)[0] == []


def test_kernel_zero_matrix():
    vecs = kernel_basis(mat([[0, 0, 0], [0, 0, 0]]), 0)[0]
    assert vecs == [{0: 1}, {1: 1}, {2: 1}]


def test_kernel_single_row():
    # hand computation: x + 2y = 0 -> (-2, 1)
    (v,) = kernel_basis(mat([[1, 2]]), 0)[0]
    assert v == {0: Fraction(-2), 1: Fraction(1)}


def test_empty_matrix_allowed():
    m = Matrix(0, [{}, {}, {}])
    assert rank(m, 0) == 0
    assert len(kernel_basis(m, 0)[0]) == 3
    assert LinearSolver(m, 0).solve({}) == {}


sq = st.integers(min_value=-6, max_value=6)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(sq, min_size=4, max_size=4), min_size=3, max_size=5),
    st.lists(sq, min_size=4, max_size=4),
    st.lists(sq, min_size=5, max_size=5),
)
def test_rref_idempotent_and_rank_nullity(rows, v, coeffs):
    m = mat(rows)
    ech = row_echelon(m)
    assert ech.rank == rank(m, 0)
    assert rank(m, 0) + len(kernel_basis(m, 0)[0]) == m.cols
    vec = {j: Fraction(c) for j, c in enumerate(v) if c}
    res = ech.reduce(vec)
    assert ech.reduce(res) == res
    assert not set(res) & set(ech.rows)
    # w: a combination of the rows, so v + w lies in the same coset
    shifted = dict(vec)
    for i, j, c in m.entries:
        shifted[j] = shifted.get(j, 0) + coeffs[i] * c
    assert ech.reduce({j: c for j, c in shifted.items() if c}) == res


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(sq, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(sq, min_size=3, max_size=3),
    st.booleans(),
)
def test_solve_back_substitutes(rows, y, consistent):
    m = mat(rows)
    pivots = pivot_columns(m)
    yq = {j: Fraction(c) for j, c in enumerate(y) if c}
    b = mat_vec(m, yq) if consistent else yq
    x = LinearSolver(m, 0).solve(b)
    if x is None:
        augmented = Matrix(m.rows, m.columns + [b])
        assert not consistent and rank(augmented, 0) > rank(m, 0)
    else:
        assert mat_vec(m, x) == b
        assert set(x) <= set(pivots)
    free = [j for j in range(m.cols) if j not in pivots]
    kernel = kernel_basis(m, 0)[0]
    assert len(kernel) == len(free)
    for fc, v in zip(free, kernel):
        assert mat_vec(m, v) == {}
        assert v[fc] == 1 and set(v) - {fc} <= {p for p in pivots if p < fc}


def test_entries_list_the_nonzero_triples_column_by_column():
    m = mat([[1, 0, 2], [0, 0, 3], [4, 0, 0]])
    assert (m.rows, m.cols) == (3, 3)
    assert m.columns == [{0: 1, 2: 4}, {}, {0: 2, 1: 3}]
    assert m.entries == [(0, 0, 1), (2, 0, 4), (0, 2, 2), (1, 2, 3)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([0, 7]),
    st.lists(st.lists(sq, min_size=4, max_size=4), min_size=1, max_size=5),
    st.lists(sq, min_size=5, max_size=5),
)
def test_elimination_leaves_the_matrix_columns_unchanged(p, rows, b):
    # the echelon reads a column in place and copies it only before its
    # first subtraction, so a matrix must come out of it unchanged
    m = mat(rows, p=p)
    before = copy.deepcopy(m.columns)
    rank(m, p)
    kernel_basis(m, p)
    solver = LinearSolver(m, p)
    for col in m.columns:
        solver.solve(col)
    solver.solve({i: r for i, c in enumerate(b[: m.rows]) if (r := c % p if p else c)})
    assert m.columns == before


def test_gf_matches_rationals_mod_p():
    p = 7
    # full rank; then rank 2 (third row = first + second) with a kernel in sixths
    for rows in ([[1, 2, 3], [4, 5, 6], [7, 8, 10]], [[2, 1, 0, 5], [0, 3, 1, 1], [2, 4, 1, 6]]):
        assert rank(mat(rows), 0) == rank(mat(rows, p=p), p)
        kq = kernel_basis(mat(rows), 0)[0]
        kp = kernel_basis(mat(rows, p=p), p)[0]
        assert len(kq) == len(kp)
        for vq, vp in zip(kq, kp):
            assert all(q.denominator % p for q in vq.values())
            lifted = {j: q.numerator * pow(q.denominator, -1, p) % p for j, q in vq.items()}
            assert {j: c for j, c in lifted.items() if c} == vp  # -7/3 lifts to 0


def test_prime_field_rejects_two_and_composites():
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(9)
    # a prime, but its trial division would take about 1.5e9 steps
    with pytest.raises(ValueError, match="too large"):
        PrimeField(2**61 - 1)


def test_gf_division():
    # the non-unit pivot 3 is inverted mod 11 (3 * 4 = 12), and 5 * 4 = 20 = 9
    ech = SparseEchelon(11, track=True)
    assert ech.add({0: 3, 1: 5}, "v") == 0
    assert ech.rows == {0: {0: 1, 1: 9}}
    assert ech.combos == {0: {"v": 4}}
    assert ech.express({0: 6, 1: 10}) == {"v": 2}


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([0, 7]),
    st.lists(st.tuples(st.integers(0, 4), sq), max_size=12),
    st.lists(st.tuples(st.integers(0, 4), sq), max_size=6),
    sq,
)
def test_accumulate_and_axpy_match_dense_sums(p, terms, x_terms, c):
    def dense(pairs):
        out = [0] * 5
        for k, v in pairs:
            out[k] += v
        return out

    def sparse(values):
        reduced = (v % p if p else v for v in values)
        return {k: v for k, v in enumerate(reduced) if v}

    acc = accumulate(terms, p)
    assert acc == sparse(dense(terms)) and all(acc.values())
    x = accumulate(x_terms, p)
    want = [a + c * b for a, b in zip(dense(terms), dense(x_terms))]
    out = axpy(acc, c, x, p)
    assert out is acc  # in place
    assert out == sparse(want) and all(out.values())


def _coefficients(x):
    """Every coefficient in a sparse vector, a list of them, or None."""
    if x is None:
        return []
    if isinstance(x, dict):
        return list(x.values())
    return [c for v in x for c in _coefficients(v)]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(sq, min_size=4, max_size=4), min_size=1, max_size=5),
    st.lists(sq, min_size=5, max_size=5),
    st.lists(sq, min_size=4, max_size=4),
)
def test_int_coefficients_make_no_float_and_match_fractions(rows, b, y):
    ints = mat(rows)
    assert all(type(c) is int for _, _, c in ints.entries)
    fracs = Matrix(ints.rows, [{i: Fraction(c) for i, c in col.items()} for col in ints.columns])
    rhs = [{i: c for i, c in enumerate(b[: ints.rows]) if c}, mat_vec(ints, dict(enumerate(y)))]
    solver, old_solver = LinearSolver(ints, 0), LinearSolver(fracs, 0)
    ech = solver.echelon
    got = [kernel_basis(ints, 0)[0], list(ech.rows.values()), list(ech.combos.values())]
    got += [solver.solve(v) for v in rhs]
    for c in _coefficients(got):
        assert type(c) in (int, Fraction), c
    assert rank(ints, 0) == rank(fracs, 0)
    assert kernel_basis(ints, 0)[0] == kernel_basis(fracs, 0)[0]
    assert [solver.solve(v) for v in rhs] == [old_solver.solve(v) for v in rhs]


def _same_elimination(a, p, reference_echelon, rhs=()):
    """Eliminate the columns of `a` with `SparseEchelon`, one `add` at a
    time and in the one pass of `LinearSolver`, and with the reference
    loop, and require the same rows and combinations, in the same order,
    the same rank, the same solutions of each column and of each vector
    of `rhs`, and the same kernel basis, returned with the same
    echelon."""
    Reference, reference_kernel = reference_echelon
    ech, ref = SparseEchelon(p, track=True), Reference(p, track=True)
    for j, col in enumerate(a.columns):
        assert ech.add(col, j) == ref.add(col, j)
    items = lambda table: [(k, list(v.items())) for k, v in table.items()]
    assert items(ech.rows) == items(ref.rows)
    assert items(ech.combos) == items(ref.combos)
    solver = LinearSolver(a, p).echelon
    assert items(solver.rows) == items(ref.rows)
    assert items(solver.combos) == items(ref.combos)
    assert rank(a, p) == ech.rank == ref.rank
    for b in [*a.columns, *rhs]:
        assert ech.express(b) == ref.express(b)
    kernel, kernel_echelon = kernel_basis(a, p)
    assert kernel == reference_kernel(a, p)
    # and its echelon is the tracked echelon of the columns
    assert items(kernel_echelon.rows) == items(ref.rows)
    assert items(kernel_echelon.combos) == items(ref.combos)


@st.composite
def sparse_matrices(draw, p):
    """A sparse matrix with up to 8 rows and columns and entries in -3..3
    (mod p when p is not 0), each column's items in drawn order; and a
    few sparse right-hand sides."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    coeff = st.integers(-3, 3).map(lambda c: c % p if p else c).filter(bool)
    columns = [{} for _ in range(cols)]
    for (i, j), c in draw(st.dictionaries(cell, coeff, max_size=rows * cols)).items():
        columns[j][i] = c
    rhs = draw(st.lists(st.dictionaries(st.integers(0, rows - 1), coeff), max_size=3))
    return Matrix(rows, columns), rhs


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_elimination_matches_the_reference_loop(reference_echelon, data):
    # non-unit pivots over Q make Fraction rows and combinations
    p = data.draw(st.sampled_from([0, 7]), label="p")
    a, rhs = data.draw(sparse_matrices(p), label="matrix")
    _same_elimination(a, p, reference_echelon, rhs)


@st.composite
def repeating_matrices(draw, p):
    """A matrix of `sparse_matrices` with some of its columns repeated, as
    equal dicts and as the very same dict objects, and empty columns
    added, all in a drawn order; and its right-hand sides."""
    a, rhs = draw(sparse_matrices(p))
    columns = list(a.columns)
    for j, kind in draw(
        st.lists(st.tuples(st.integers(0, a.cols - 1), st.sampled_from("same equal empty".split())))
    ):
        columns.append({"same": a.columns[j], "equal": dict(a.columns[j]), "empty": {}}[kind])
    order = draw(st.permutations(range(len(columns))))
    return Matrix(a.rows, [columns[i] for i in order]), rhs


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_repeated_and_empty_columns_match_the_reference_loop(reference_echelon, data):
    # a repeat of a column kept as its row is dependent with no subtraction
    p = data.draw(st.sampled_from([0, 7]), label="p")
    a, rhs = data.draw(repeating_matrices(p), label="matrix")
    _same_elimination(a, p, reference_echelon, rhs)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_boundary_elimination_matches_the_reference_loop(reference_echelon, n, field):
    r = Resolution(get_algebra(n, field))
    for m in range(14):
        a = r.boundary_matrix(m)
        units = [{i: 1} for i in range(0, a.rows, max(1, a.rows // 5))]
        _same_elimination(a, field.p, reference_echelon, units)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_unit_led_columns_become_their_rows_uncopied(reference_echelon, n):
    # over Q the echelon keeps a column that needs no elimination and leads
    # with 1 as its row, so the column is handed over, not copied
    Reference = reference_echelon[0]
    r = Resolution(get_algebra(n))
    kept = 0
    for m in range(14):
        a = r.boundary_matrix(m)
        rows, ref = LinearSolver(a, 0).echelon.rows, Reference(0)
        for col in a.columns:
            lead = min(col, default=None)
            if lead is not None and lead not in ref.rows and col[lead] == 1:
                assert rows[lead] is col, (m, lead)
                kept += 1
            ref.add(col)
    assert kept

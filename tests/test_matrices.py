import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from stab import matrices
from stab.domains import ZZ, BackendMismatch, poly_ring
from stab.matrices import Mat
from stab.modules import FpModule
from oracles import (decomposition_reference, kernel_reference, matmul_reference, preimage_hermite_reference,
                     preimage_reference, solve_hermite_reference, solve_vector_reference)

F2 = poly_ring(2)
F5 = poly_ring(5)


def rand_mat(rng, rows, cols, bound=100):
    return Mat(ZZ, [[rng.randint(-bound, bound) for _ in range(cols)]
                    for _ in range(rows)])


def is_divisibility_chain(diag):
    nonzero = [d for d in diag if d != 0]
    for a, b in zip(nonzero, nonzero[1:]):
        if b % a != 0:
            return False
    return all(d >= 0 for d in diag)


def test_hnf_examples():
    h, u = Mat(ZZ, [[12, 6]]).hnf()
    assert h.data == ((6, 0),)
    assert (Mat(ZZ, [[12, 6]]) @ u) == h

    ident = Mat.identity(ZZ, 3)
    h, u = ident.hnf()
    assert h == ident and u == ident

    a = Mat(ZZ, [[4, 0], [0, 6]])
    h, u = a.hnf()
    assert (a @ u) == h
    assert h.data[0][0] == 4 and h.data[1][1] == 6


def test_hnf_idempotent():
    rng = random.Random(3)
    for _ in range(50):
        a = rand_mat(rng, rng.randint(0, 4), rng.randint(0, 4), 30)
        h, _ = a.hnf()
        h2, _ = h.hnf()
        assert h2 == h


def test_hnf_canonical_for_equal_spans():
    # Same column span written two ways must normalize identically.
    a = Mat(ZZ, [[2, 4], [0, 6]])
    b = Mat(ZZ, [[4, 2, 6], [6, 0, 6]])
    ha, _ = a.hnf()
    hb, _ = b.hnf()
    strip = lambda h: [h.col(j) for j in range(h.cols)
                       if any(x != 0 for x in h.col(j))]
    assert strip(ha) == strip(hb)


def test_snf_examples():
    d, u, v = Mat(ZZ, [[2, 4], [6, 8]]).snf()
    assert d.diagonal() == [2, 4]
    assert (u @ Mat(ZZ, [[2, 4], [6, 8]]) @ v) == d

    z = Mat.zero(ZZ, 2, 3)
    d, u, v = z.snf()
    assert d == z

    d, _, _ = Mat(ZZ, [[2, 0], [0, 3]]).snf()
    assert d.diagonal() == [1, 6]


def test_snf_transforms_unimodular():
    rng = random.Random(11)
    for _ in range(30):
        a = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4), 50)
        d, u, v = a.snf()
        assert (u @ a @ v) == d
        assert u.inverse() is not None
        assert v.inverse() is not None
        assert is_divisibility_chain(d.diagonal())


def test_snf_poly_backend():
    x = (0, 1)
    a = Mat(F5, [[x, F5.one], [F5.zero, x]])
    d, u, v = a.snf()
    assert (u @ a @ v) == d
    diag = d.diagonal()
    assert diag[0] == F5.one
    assert diag[1] == F5.mul(x, x)


def test_snf_poly_invariance_under_unimodular():
    rng = random.Random(31)
    for _ in range(50):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        rand_elem = lambda: F5.elem_from_json(
            [rng.randrange(5) for _ in range(rng.randint(0, 3))])
        a = Mat(F5, [[rand_elem() for _ in range(cols)] for _ in range(rows)])
        d, u, v = a.snf()
        assert (u @ a @ v) == d
        # compose with an elementary unimodular transform on each side
        left = [[F5.one if i == j else F5.zero for j in range(rows)]
                for i in range(rows)]
        if rows > 1:
            left[0][1] = rand_elem()
        right = [[F5.one if i == j else F5.zero for j in range(cols)]
                 for i in range(cols)]
        if cols > 1:
            right[1][0] = rand_elem()
        b = Mat(F5, left) @ a @ Mat(F5, right)
        d2, _, _ = b.snf()
        assert d2.diagonal() == d.diagonal()


def test_solve_examples():
    assert Mat(ZZ, [[2]]).solve(Mat(ZZ, [[4]])) == Mat(ZZ, [[2]])
    assert Mat(ZZ, [[2]]).solve(Mat(ZZ, [[3]])) is None
    x = Mat(ZZ, [[2, 4]]).solve(Mat(ZZ, [[6]]))
    assert 2 * x[0, 0] + 4 * x[1, 0] == 6
    # no columns: only the zero vector is reachable
    assert Mat.zero(ZZ, 2, 0).solve(Mat(ZZ, [[0], [0]])) == Mat.zero(ZZ, 0, 1)
    assert Mat.zero(ZZ, 2, 0).solve(Mat(ZZ, [[1], [0]])) is None


def test_solve_random_consistency():
    rng = random.Random(5)
    for _ in range(80):
        a = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4), 10)
        x = rand_mat(rng, a.cols, rng.randint(1, 3), 5)
        b = a @ x
        y = a.solve(b)
        assert y is not None
        assert a @ y == b


def test_kernel_examples():
    k = Mat(ZZ, [[2, 4]]).kernel()
    assert k.cols == 1
    col = k.col(0)
    assert 2 * col[0] + 4 * col[1] == 0 and col != [0, 0]

    inv = Mat(ZZ, [[1, 1], [0, 1]])
    assert inv.kernel().cols == 0

    full = Mat.zero(ZZ, 1, 2).kernel()
    assert full.cols == 2


def test_kernel_contains_all_small_solutions():
    rng = random.Random(9)
    for _ in range(12):
        a = rand_mat(rng, 3, 3, 4)
        k = a.kernel()
        for x0 in range(-6, 7):
            for x1 in range(-6, 7):
                for x2 in range(-6, 7):
                    v = [x0, x1, x2]
                    if a.mul_vec(v) == [0, 0, 0]:
                        assert k.solve(Mat.from_cols(ZZ, [v], 3)) is not None


@given(st.lists(st.lists(st.integers(-50, 50), min_size=2, max_size=2),
                min_size=2, max_size=4))
@settings(max_examples=40)
def test_kernel_columns_annihilate(rows):
    a = Mat(ZZ, rows)
    k = a.kernel()
    for j in range(k.cols):
        assert a.mul_vec(k.col(j)) == [0] * a.rows


def test_empty_shapes():
    e = Mat.zero(ZZ, 0, 3)
    d, u, v = e.snf()
    assert d.rows == 0 and d.cols == 3
    h, uh = e.hnf()
    assert h.rows == 0
    assert Mat.zero(ZZ, 0, 0).kernel().cols == 0
    assert e.solve(Mat.zero(ZZ, 0, 1)) is not None


def test_kron_indexing():
    a = Mat(ZZ, [[1, 2]])
    b = Mat(ZZ, [[3], [4]])
    k = a.kron(b)
    assert k.rows == 2 and k.cols == 2
    assert k.data == ((3, 6), (4, 8))


def test_equal_matrices_from_different_routes_share_forms():
    rows = [[4, 6, 2], [10, 0, 8]]
    for domain, data in [(ZZ, rows),
                         (F5, [[F5.const(c) + (1,) for c in r] for r in rows])]:
        a = Mat(domain, data)
        # A product with the identity returns ``a`` itself; swapping two
        # columns twice is a product that builds an equal matrix anew.
        swap = Mat(domain, [[domain.zero, domain.one, domain.zero],
                            [domain.one, domain.zero, domain.zero],
                            [domain.zero, domain.zero, domain.one]])
        routes = [Mat.from_cols(domain, a.columns(), a.rows),
                  a @ swap @ swap,
                  a.hstack(Mat.zero(domain, a.rows, 1)).take_cols(range(a.cols))]
        for b in routes:
            assert b == a and b is not a
            h, u = b.hnf()
            assert (h, u) == a.hnf()
            assert b @ u == h
            d, ul, vr = b.snf()
            assert (d, ul, vr) == a.snf()
            assert ul @ b @ vr == d
            assert b._snf_full() == a._snf_full()


# -- one solver for every column, one preimage --------------------------------

def elems(domain):
    if domain is ZZ:
        return st.integers(-12, 12)
    return st.lists(st.integers(0, domain.p - 1), max_size=3).map(domain.elem_from_json)


@st.composite
def mats(draw, domain, rows, cols):
    return Mat(domain, draw(st.lists(st.lists(elems(domain), min_size=cols, max_size=cols),
                                     min_size=rows, max_size=rows)), rows, cols)


@st.composite
def systems(draw, min_rows=0):
    """``(a, b)``: some columns of ``b`` lie in the span of ``a``, some are random."""
    domain = draw(st.sampled_from([ZZ, F2, F5]))
    rows, cols = draw(st.integers(min_rows, 3)), draw(st.integers(0, 3))
    a = draw(mats(domain, rows, cols))
    b_cols = []
    for _ in range(draw(st.integers(0, 3))):
        col = (a @ draw(mats(domain, cols, 1))).col(0)
        if draw(st.booleans()):
            col = [domain.add(c, e) for c, e in zip(col, draw(mats(domain, rows, 1)).col(0))]
        b_cols.append(col)
    return a, Mat.from_cols(domain, b_cols, rows)


def non_unit(domain):
    return 2 if domain is ZZ else (0, 1)


@given(systems())
@settings(max_examples=150, deadline=None)
def test_solve_matches_per_column_reference(system):
    a, b = system
    x = a.solve(b)
    refs = [solve_vector_reference(a, col) for col in b.columns()]
    if any(r is None for r in refs):
        assert x is None
    else:
        assert x is not None and x.rows == a.cols and x.cols == b.cols
        assert x.columns() == refs
        assert a @ x == b


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_solve_none_when_only_last_column_inconsistent(data):
    domain = data.draw(st.sampled_from([ZZ, F2, F5]))
    rows, cols, k = (data.draw(st.integers(lo, 3)) for lo in (1, 0, 0))
    # Every entry of g*a @ x is a multiple of the non-unit g; e_0 is not.
    a = data.draw(mats(domain, rows, cols)).scale(non_unit(domain))
    good = a @ data.draw(mats(domain, cols, k))
    e0 = Mat.from_cols(domain, [[domain.one] + [domain.zero] * (rows - 1)], rows)
    assert a.solve(good) is not None
    assert solve_vector_reference(a, e0.col(0)) is None
    assert a.solve(good.hstack(e0)) is None


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_solve_no_columns_skips_the_hermite_form(data):
    domain = data.draw(st.sampled_from([ZZ, F2, F5]))
    rows, cols = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    a = data.draw(mats(domain, rows, cols))
    runs, hnf = [], Mat.hnf
    with mock.patch.object(Mat, "hnf", lambda m: runs.append(m) or hnf(m)):
        assert a.solve(Mat.zero(domain, rows, 0)) == Mat.zero(domain, cols, 0)
    assert runs == []


def test_solve_rejects_wrong_row_count():
    with pytest.raises(ValueError):
        Mat(ZZ, [[1, 2]]).solve(Mat(ZZ, [[1], [2]]))


@given(systems())
@settings(max_examples=150, deadline=None)
def test_preimage_matches_reference(system):
    a, b = system
    pre = a.preimage(b)
    assert pre == preimage_reference(a, b)
    assert a.kernel() == kernel_reference(a)
    # Every generator lands in the span of b.
    assert b.solve(a @ pre) is not None


# -- elimination on mostly-zero matrices ---------------------------------------
# The eliminations and the product skip zero source entries; these check the
# transform identities, and the product against one that sums every term.

def sparse_elems(domain):
    """Zero four times in five; nonzero polynomials reach degree 20."""
    if domain is ZZ:
        nonzero = st.integers(-10**6, 10**6)
    else:
        nonzero = st.lists(st.integers(0, domain.p - 1), min_size=1, max_size=21).map(
            domain.elem_from_json)
    return st.integers(0, 4).flatmap(lambda k: nonzero if k == 0 else st.just(domain.zero))


@st.composite
def sparse_mats(draw, domain, rows, cols):
    return Mat(domain, draw(st.lists(st.lists(sparse_elems(domain), min_size=cols,
                                              max_size=cols),
                                     min_size=rows, max_size=rows)), rows, cols)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_sparse_normal_forms_and_product(data):
    domain = data.draw(st.sampled_from([ZZ, F2, F5]))
    rows, cols, k = (data.draw(st.integers(0, 5)) for _ in range(3))
    a = data.draw(sparse_mats(domain, rows, cols))
    b = data.draw(sparse_mats(domain, cols, k))
    assert a @ b == matmul_reference(a, b)
    h, u = a.hnf()
    assert matmul_reference(a, u) == h
    d, u, v, uinv = a._snf_full()
    assert matmul_reference(matmul_reference(u, a), v) == d
    assert matmul_reference(u, uinv) == Mat.identity(domain, rows)
    assert all(d[i, j] == domain.zero for i in range(rows) for j in range(cols) if i != j)


# -- the Smith diagonal without transforms ---------------------------------------

@given(st.data())
@settings(max_examples=150, deadline=None)
def test_smith_diagonal_matches_full_form(data):
    domain = data.draw(st.sampled_from([ZZ, F2, F5]))
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 5))
    a = data.draw(st.one_of(sparse_mats(domain, rows, cols),
                            st.just(Mat.zero(domain, rows, cols))))
    diag = a.smith_diagonal()
    assert diag == tuple(a._snf_full()[0].diagonal())
    assert len(diag) == min(rows, cols)


# -- monomial systems, answered entrywise ----------------------------------------
# A matrix with at most one nonzero in each row and each column splits solve
# and preimage into one equation per entry; these compare that path with the
# Hermite path it replaces.

UNITS = {ZZ: [1, -1], F2: [(1,)], F5: [(1,), (2,), (3,), (4,)]}


def nonzero_elems(domain):
    """Units and non-canonical entries: negative integers, non-monic polynomials."""
    return st.one_of(st.sampled_from(UNITS[domain]), elems(domain).filter(bool))


@st.composite
def monomial_mats(draw, domain, rows, cols):
    """Some distinct rows paired with distinct columns; the rest stay zero."""
    cells = list(zip(draw(st.permutations(range(rows))), draw(st.permutations(range(cols)))))
    data = [[domain.zero] * cols for _ in range(rows)]
    for i, j in cells[:draw(st.integers(0, len(cells)))]:
        data[i][j] = draw(nonzero_elems(domain))
    return Mat(domain, data, rows, cols)


@st.composite
def monomial_systems(draw):
    """``(a, b, gens)``: a monomial ``a``; right-hand sides ``b``, some in its
    span and some perturbed; generators ``gens`` with at most one nonzero per
    column, several on one row, and sometimes one column of two nonzeros."""
    domain = draw(st.sampled_from([ZZ, F2, F5]))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    a = draw(monomial_mats(domain, rows, cols))
    rhs = []
    for _ in range(draw(st.integers(0, 3))):
        col = (a @ draw(mats(domain, cols, 1))).col(0)
        if draw(st.booleans()):
            col = [domain.add(c, e) for c, e in zip(col, draw(mats(domain, rows, 1)).col(0))]
        rhs.append(col)
    gens = []
    for _ in range(draw(st.integers(0, 4))):
        col = [domain.zero] * rows
        if rows and draw(st.booleans()):
            col[draw(st.integers(0, rows - 1))] = draw(nonzero_elems(domain))
        gens.append(col)
    if rows >= 2 and draw(st.booleans()):
        i1, i2 = draw(st.permutations(range(rows)))[:2]
        col = [domain.zero] * rows
        col[i1], col[i2] = draw(nonzero_elems(domain)), draw(nonzero_elems(domain))
        gens.insert(draw(st.integers(0, len(gens))), col)
    return a, Mat.from_cols(domain, rhs, rows), Mat.from_cols(domain, gens, rows)


@given(monomial_systems())
@example((Mat(ZZ, [[-2, 0], [0, 0]]), Mat(ZZ, [[4, 3], [0, 0]]), Mat(ZZ, [[6, -4], [0, 0]])))
@example((Mat(ZZ, [[0, 3]]), Mat(ZZ, [[6]]), Mat(ZZ, [[0, 2]])))
@example((Mat(ZZ, [[2], [0]]), Mat(ZZ, [[2], [1]]), Mat(ZZ, [[4, 0, 6], [0, 5, 0]])))
@example((Mat(F5, [[(0, 2)]]), Mat(F5, [[(0, 0, 3)]]), Mat(F5, [[(0, 0, 4), (3, 3)]])))
@example((Mat(F2, [[(1, 1), ()], [(), ()]]), Mat(F2, [[(0, 1)], [()]]),
          Mat(F2, [[(1, 1)], [(1,)]])))
@example((Mat.zero(ZZ, 0, 3), Mat.zero(ZZ, 0, 2), Mat.zero(ZZ, 0, 1)))
@example((Mat.zero(F5, 3, 0), Mat(F5, [[()], [(1,)], [()]]), Mat.zero(F5, 3, 2)))
@settings(max_examples=300, deadline=None)
def test_monomial_solve_and_preimage_match_the_hermite_path(system):
    a, b, gens = system
    assert a.solve(b) == solve_hermite_reference(a, b)
    assert a.preimage(gens) == preimage_hermite_reference(a, gens)
    assert a.kernel() == preimage_hermite_reference(a, Mat.zero(a.domain, a.rows, 0))


def test_monomial_solve_and_preimage_compute_no_hermite_form(monkeypatch):
    runs, products = [], []
    hnf, matmul = Mat.hnf, Mat.__matmul__
    monkeypatch.setattr(Mat, "hnf", lambda m: runs.append(m) or hnf(m))
    monkeypatch.setattr(Mat, "__matmul__", lambda m, o: products.append(m) or matmul(m, o))
    a = Mat(ZZ, [[0, 0, -4], [6, 0, 0], [0, 0, 0]])
    assert a.solve(Mat(ZZ, [[8, -4], [12, 0], [0, 0]])) == Mat(ZZ, [[2, 0], [0, 0], [-2, 1]])
    assert a.preimage(Mat(ZZ, [[6, 0, 0], [0, 4, 10], [0, 0, 0]])) == Mat(ZZ, [[1, 0, 0],
                                                                           [0, 1, 0],
                                                                           [0, 0, 3]])
    assert a.kernel() == Mat(ZZ, [[0], [1], [0]])
    assert runs == []
    # An entry that does not divide its right-hand side ends the solve before
    # the product check.
    products.clear()
    assert a.solve(Mat(ZZ, [[8], [9], [0]])) is None
    assert runs == [] and products == []
    # A column of two nonzeros in the generators takes the Hermite path.
    gens = Mat(ZZ, [[6], [4], [0]])
    assert a.preimage(gens) == preimage_hermite_reference(a, gens)
    assert a.hstack(gens) in runs


# -- a matrix already in Smith form is read off -----------------------------------
# Zero off the diagonal and canonical entries each dividing the next: the
# Smith loop would change nothing, so it does not run.  Every step of the
# loop swaps a pivot into place, so counting ``_col_swap`` calls counts it.

def swap_log():
    """A patch logging each ``_col_swap``, and the log."""
    swaps, col_swap = [], matrices._col_swap
    return swaps, mock.patch.object(
        matrices, "_col_swap", lambda W, j1, j2: swaps.append((j1, j2)) or col_swap(W, j1, j2))


@st.composite
def smith_forms(draw):
    """``(a, diag)``: 0 to 5 rows, 0 to 6 columns, zero off the diagonal, and
    a diagonal chain of canonical entries, repeats and units included, then
    trailing zeros."""
    domain = draw(st.sampled_from([ZZ, F2, F5]))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    k = min(rows, cols)
    diag, d = [], domain.one
    for _ in range(draw(st.integers(0, k))):
        d = domain.canon(domain.mul(d, draw(nonzero_elems(domain))))[0]
        diag.append(d)
    diag += [domain.zero] * (k - len(diag))
    data = [[diag[i] if i == j else domain.zero for j in range(cols)] for i in range(rows)]
    return Mat(domain, data, rows, cols), tuple(diag)


@given(smith_forms())
@example((Mat.zero(ZZ, 0, 0), ()))
@example((Mat(F5, [[(1,), (), ()], [(), (4, 1), ()], [(), (), ()]]), ((1,), (4, 1), ())))
@settings(max_examples=200, deadline=None)
def test_a_matrix_in_smith_form_is_read_off(case):
    a, diag = case
    D = a.domain
    swaps, patches = swap_log()
    with patches:
        assert a.smith_diagonal() == diag
        eye_m, eye_n = Mat.identity(D, a.rows), Mat.identity(D, a.cols)
        assert a._snf_full() == (a, eye_m, eye_n, eye_m)
    assert swaps == []
    module = FpModule(D, a.rows, a)
    nonzero = [d for d in diag if d]
    expected = (a.rows - len(nonzero), tuple(d for d in nonzero if not D.is_unit(d)))
    assert (module.rank, module.factors) == decomposition_reference(module)[:2] == expected


@given(smith_forms())
@settings(max_examples=100, deadline=None)
def test_a_smith_form_read_off_builds_no_matrix(case):
    a, diag = case
    D = a.domain
    eye_m, eye_n = Mat.identity(D, a.rows), Mat.identity(D, a.cols)
    _, patches = swap_log()
    built, init = [], Mat.__init__
    with patches, mock.patch.object(Mat, "__init__",
                                    lambda *args: built.append(args) or init(*args)):
        assert a.smith_diagonal() == diag
        d, u, v, uinv = a._snf_full()
    assert built == []
    assert d is a and u is eye_m and v is eye_n and uinv is eye_m


@pytest.mark.parametrize("a, diag", [
    (Mat(ZZ, [[-2]]), (2,)),                                # not canonical
    (Mat(F5, [[(1, 2)]]), ((3, 1),)),                       # not monic
    (Mat(ZZ, [[4, 0], [0, 6]]), (2, 12)),                   # 4 does not divide 6
    (Mat(ZZ, [[0, 0, 0], [0, 3, 0]]), (3, 0)),              # zero before nonzero
    (Mat(ZZ, [[2, 0], [0, 4], [1, 0]]), (1, 4)),            # one entry off the diagonal
    (Mat(F2, [[(1,), (0, 1)], [(), (0, 1)]]), ((1,), (0, 1))),
])
def test_a_near_miss_of_smith_form_runs_the_loop(a, diag):
    D = a.domain
    for full in (False, True):
        swaps, patches = swap_log()
        with patches:
            if full:
                d, u, v, uinv = a._snf_full()
                assert tuple(d.diagonal()) == diag and u @ a @ v == d
                assert u @ uinv == Mat.identity(D, a.rows)
            else:
                assert a.smith_diagonal() == diag
        assert swaps


# -- operands the algebra already gives -------------------------------------------
# A product with an identity, a stack with an empty side, a Kronecker product
# with a 1 x 1 identity and a selection of every index return an operand; an
# empty product returns the shared zero.  Each is compared with entries built
# from the domain's operations alone, not through ``Mat`` operations.

def zeros_ref(D, rows, cols):
    return tuple((D.zero,) * cols for _ in range(rows))


def kron_ref(a, b):
    D = a.domain
    return tuple(tuple(D.mul(a.data[i][j], b.data[k][l])
                       for j in range(a.cols) for l in range(b.cols))
                 for i in range(a.rows) for k in range(b.rows))


def shape(m):
    return m.rows, m.cols, m.data


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_shortcuts_match_entrywise_references(data):
    D = data.draw(st.sampled_from([ZZ, F2, F5]))
    rows, cols, k = (data.draw(st.integers(0, 3)) for _ in range(3))
    a = data.draw(st.one_of(sparse_mats(D, rows, cols), monomial_mats(D, rows, cols)))
    b = data.draw(mats(D, cols, k))
    c = data.draw(mats(D, rows, k))
    one = Mat(D, [[D.one]])
    ident_rows = Mat(D, [[D.one if i == j else D.zero for j in range(rows)] for i in range(rows)])
    ident_cols = Mat(D, [[D.one if i == j else D.zero for j in range(cols)] for i in range(cols)],
                     cols, cols)
    for ident in (Mat.identity(D, cols), ident_cols):
        assert shape(a @ ident) == (rows, cols, a.data)
    for ident in (Mat.identity(D, rows), ident_rows):
        assert shape(ident @ a) == (rows, cols, a.data)
    assert shape(a @ b) == shape(matmul_reference(a, b))
    assert shape(a @ Mat.zero(D, cols, 0)) == (rows, 0, zeros_ref(D, rows, 0))
    assert shape(Mat.zero(D, 0, rows) @ a) == (0, cols, ())
    assert shape(Mat.zero(D, k, 0) @ Mat.zero(D, 0, cols)) == (k, cols, zeros_ref(D, k, cols))
    empty = Mat(D, [[]] * rows, rows, 0)
    for left, right in ((a, empty), (empty, a)):
        assert shape(left.hstack(right)) == (rows, cols, a.data)
    assert shape(a.hstack(c)) == (rows, cols + k, tuple(ra + rc for ra, rc in zip(a.data, c.data)))
    for left, right in ((a, one), (one, a)):
        assert shape(left.kron(right)) == (rows, cols, a.data)
    for other in (b, c, Mat.zero(D, k, 0), Mat.zero(D, 0, k)):
        assert shape(a.kron(other)) == (rows * other.rows, cols * other.cols, kron_ref(a, other))
    assert shape(a.take_cols(range(cols))) == (rows, cols, a.data)
    assert shape(a.take_rows(list(range(rows)))) == (rows, cols, a.data)
    picked = data.draw(st.lists(st.integers(0, max(cols - 1, 0)), max_size=cols if cols else 0))
    assert shape(a.take_cols(picked)) == (rows, len(picked),
                                           tuple(tuple(r[j] for j in picked) for r in a.data))
    rev = list(range(rows))[::-1]
    assert shape(a.take_rows(rev)) == (rows, cols, a.data[::-1])


@pytest.mark.parametrize("D", [ZZ, F2, F5])
def test_shared_identity_and_zero_stay_immutable(D):
    for m in (Mat.identity(D, 3), Mat.zero(D, 2, 0), Mat.zero(D, 0, 2), Mat.zero(D, 2, 3)):
        for name in ("data", "rows", "cols", "domain"):
            with pytest.raises(AttributeError):
                setattr(m, name, None)
    assert Mat.identity(D, 3) is Mat.identity(D, 3)
    assert Mat.identity(D, 3).data == tuple(tuple(D.one if i == j else D.zero for j in range(3))
                                            for i in range(3))
    assert Mat.zero(D, 2, 3) is Mat.zero(D, 2, 3)
    assert Mat.zero(D, 2, 3).data == zeros_ref(D, 2, 3)


def test_shortcuts_keep_their_errors():
    eye, empty = Mat.identity(ZZ, 2), Mat.zero(ZZ, 2, 0)
    with pytest.raises(BackendMismatch):
        eye @ Mat.identity(F2, 2)
    with pytest.raises(BackendMismatch):
        empty.hstack(Mat.zero(F2, 2, 0))
    with pytest.raises(BackendMismatch):
        Mat.identity(ZZ, 1).kron(Mat.identity(F5, 1))
    with pytest.raises(ValueError):
        empty @ Mat.zero(ZZ, 1, 3)
    with pytest.raises(ValueError):
        eye @ Mat.identity(ZZ, 3)
    with pytest.raises(ValueError):
        empty.hstack(Mat.zero(ZZ, 3, 0))

import random

from hypothesis import given, settings, strategies as st

from stab import matrices
from stab.domains import ZZ, poly_ring
from stab.matrices import Mat, NF_MEMO_BOUND

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
    assert Mat(ZZ, [[2]]).solve([4]) == [2]
    assert Mat(ZZ, [[2]]).solve([3]) is None
    x = Mat(ZZ, [[2, 4]]).solve([6])
    assert 2 * x[0] + 4 * x[1] == 6
    # no columns: only the zero vector is reachable
    assert Mat.zero(ZZ, 2, 0).solve([0, 0]) == []
    assert Mat.zero(ZZ, 2, 0).solve([1, 0]) is None


def test_solve_random_consistency():
    rng = random.Random(5)
    for _ in range(80):
        a = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4), 10)
        x = [rng.randint(-5, 5) for _ in range(a.cols)]
        b = a.mul_vec(x)
        y = a.solve(b)
        assert y is not None
        assert a.mul_vec(y) == b


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
                        assert k.solve(v) is not None


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
    assert e.solve([]) is not None


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
        routes = [Mat.from_cols(domain, a.columns(), a.rows),
                  a @ Mat.identity(domain, a.cols),
                  a.hstack(Mat.zero(domain, a.rows, 1)).take_cols(range(a.cols))]
        for b in routes:
            assert b == a and b is not a
            h, u = b.hnf()
            assert (h, u) == a.hnf()
            assert b @ u == h
            d, ul, vr = b.snf()
            assert (d, ul, vr) == a.snf()
            assert ul @ b @ vr == d
            assert b._snf_full() is a._snf_full()


def test_normal_form_memos_hold_exactly_their_bound():
    for k in range(NF_MEMO_BOUND + 5):
        a = Mat(ZZ, [[k + 2, 3], [5, 7 * k + 1]])
        a.hnf()
        a.snf()
    assert len(matrices._HNF_MEMO.entries) == NF_MEMO_BOUND
    assert len(matrices._SNF_MEMO.entries) == NF_MEMO_BOUND
    assert Mat(ZZ, [[2, 3], [5, 1]]) not in matrices._HNF_MEMO.entries

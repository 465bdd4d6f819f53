"""Exact dense matrices over a Euclidean backend.

Column-operation convention throughout: module relations are columns, so
the Hermite form is a *column* echelon form (``A @ U == H`` with ``U``
unimodular) and presentations compose directly with cokernels.

Pivots are chosen by minimal norm to limit coefficient growth; arithmetic
is exact, so blow-up is a speed concern only.

``Mat`` is immutable and hashed by content, so the Hermite and Smith forms
are memoized per process on the matrix itself: equal matrices built by
different routes share one computation.  The memos are bounded, because a
form can be much larger than its input.
"""

from __future__ import annotations

from .domains import BackendMismatch, BoundedMemo

NF_MEMO_BOUND = 32

_HNF_MEMO = BoundedMemo(NF_MEMO_BOUND)
_SNF_MEMO = BoundedMemo(NF_MEMO_BOUND)


class Mat:
    """An immutable ``rows x cols`` matrix with entries in a backend domain.

    Zero-row and zero-column matrices are permitted and arise routinely as
    presentations of free and zero modules.
    """

    __slots__ = ("domain", "rows", "cols", "data")

    def __init__(self, domain, data, rows=None, cols=None):
        data = tuple(tuple(r) for r in data)
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("ragged matrix data")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, domain, rows, cols):
        z = domain.zero
        return cls(domain, [[z] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, domain, n):
        z, o = domain.zero, domain.one
        return cls(domain, [[o if i == j else z for j in range(n)] for i in range(n)], n, n)

    @classmethod
    def from_cols(cls, domain, cols, rows):
        z = domain.zero
        if not cols:
            return cls.zero(domain, rows, 0)
        return cls(domain, [[c[i] for c in cols] for i in range(rows)], rows, len(cols))

    @classmethod
    def scalar(cls, domain, n, elem):
        z = domain.zero
        return cls(domain, [[elem if i == j else z for j in range(n)] for i in range(n)], n, n)

    # -- basic access ------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def col(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.col(j) for j in range(self.cols)]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.domain == other.domain and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.domain, self.rows, self.cols, self.data))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, {[list(r) for r in self.data]})"

    def _check_domain(self, other):
        if self.domain != other.domain:
            raise BackendMismatch("matrices over different backends")

    # -- arithmetic ----------------------------------------------------------

    def __matmul__(self, other):
        self._check_domain(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        D = self.domain
        z = D.zero
        out = []
        for i in range(self.rows):
            row = []
            a = self.data[i]
            for j in range(other.cols):
                acc = z
                for k in range(self.cols):
                    if not D.is_zero(a[k]):
                        acc = D.add(acc, D.mul(a[k], other.data[k][j]))
                row.append(acc)
            out.append(row)
        return Mat(D, out, self.rows, other.cols)

    def mul_vec(self, vec):
        D = self.domain
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for i in range(self.rows):
            acc = D.zero
            for k in range(self.cols):
                acc = D.add(acc, D.mul(self.data[i][k], vec[k]))
            out.append(acc)
        return out

    def __add__(self, other):
        return self._entrywise(self.domain.add, other)

    def __sub__(self, other):
        return self._entrywise(self.domain.sub, other)

    def _entrywise(self, op, other):
        self._check_domain(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Mat(self.domain, [[op(a, b) for a, b in zip(ra, rb)]
                                 for ra, rb in zip(self.data, other.data)], self.rows, self.cols)

    def scale(self, elem):
        D = self.domain
        return Mat(D, [[D.mul(elem, a) for a in r] for r in self.data], self.rows, self.cols)

    def hstack(self, other):
        self._check_domain(other)
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return Mat(self.domain, [ra + rb for ra, rb in zip(self.data, other.data)],
                   self.rows, self.cols + other.cols)

    def vstack(self, other):
        self._check_domain(other)
        if self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        return Mat(self.domain, self.data + other.data, self.rows + other.rows, self.cols)

    def take_cols(self, indices):
        return Mat(self.domain, [[r[j] for j in indices] for r in self.data],
                   self.rows, len(indices))

    def take_rows(self, indices):
        return Mat(self.domain, [self.data[i] for i in indices], len(indices), self.cols)

    def kron(self, other):
        """Kronecker product; index ``(i, k)`` maps to ``i * other.rows + k``."""
        self._check_domain(other)
        D = self.domain
        rows = self.rows * other.rows
        cols = self.cols * other.cols
        out = [[D.zero] * cols for _ in range(rows)]
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.data[i][j]
                if D.is_zero(a):
                    continue
                for k in range(other.rows):
                    for l in range(other.cols):
                        out[i * other.rows + k][j * other.cols + l] = D.mul(a, other.data[k][l])
        return Mat(D, out, rows, cols)

    def is_zero(self):
        D = self.domain
        return all(D.is_zero(a) for r in self.data for a in r)

    # -- normal forms ----------------------------------------------------------

    def hnf(self):
        """Column Hermite normal form.

        Returns ``(H, U)`` with ``U`` unimodular and ``self @ U == H``; ``H``
        has pivot rows strictly increasing left to right, canonical pivots,
        entries right of a pivot zero and entries left of it reduced, and all
        zero columns trailing.  The form is canonical: two column spans are
        equal iff their Hermite forms are equal.
        """
        return _HNF_MEMO.get(self, self._compute_hnf)

    def _compute_hnf(self):
        D = self.domain
        m, n = self.rows, self.cols
        H = [list(r) for r in self.data]
        U = [[D.one if i == j else D.zero for j in range(n)] for i in range(n)]

        def col_swap(j1, j2):
            if j1 == j2:
                return
            for r in H:
                r[j1], r[j2] = r[j2], r[j1]
            for r in U:
                r[j1], r[j2] = r[j2], r[j1]

        def col_sub(j, jsrc, q):
            # column j -= q * column jsrc
            if D.is_zero(q):
                return
            for r in H:
                r[j] = D.sub(r[j], D.mul(q, r[jsrc]))
            for r in U:
                r[j] = D.sub(r[j], D.mul(q, r[jsrc]))

        def col_scale(j, u):
            if u == D.one:
                return
            for r in H:
                r[j] = D.mul(u, r[j])
            for r in U:
                r[j] = D.mul(u, r[j])

        col = 0
        for row in range(m):
            if col >= n:
                break
            nz = [j for j in range(col, n) if not D.is_zero(H[row][j])]
            if not nz:
                continue
            while True:
                j0 = min(nz, key=lambda j: (D.norm(H[row][j]), j))
                col_swap(col, j0)
                clean = True
                for j in range(col + 1, n):
                    a = H[row][j]
                    if D.is_zero(a):
                        continue
                    q, r = D.divmod(a, H[row][col])
                    col_sub(j, col, q)
                    if not D.is_zero(r):
                        clean = False
                if clean:
                    break
                nz = [j for j in range(col, n) if not D.is_zero(H[row][j])]
            c, u = D.canon(H[row][col])
            col_scale(col, u)
            for j in range(col):
                q, _ = D.divmod(H[row][j], H[row][col])
                col_sub(j, col, q)
            col += 1
        return (Mat(D, H, m, n), Mat(D, U, n, n))

    def snf(self):
        """Smith normal form: ``(D, U, V)`` with ``U @ self @ V == D``.

        ``D`` is diagonal with canonical entries forming a divisibility chain;
        ``U`` and ``V`` are unimodular.
        """
        d, u, v, _, _ = self._snf_full()
        return d, u, v

    def _snf_full(self):
        """Smith form plus the inverses of both transforms."""
        return _SNF_MEMO.get(self, self._compute_snf)

    def _compute_snf(self):
        D = self.domain
        m, n = self.rows, self.cols
        A = [list(r) for r in self.data]
        U = [[D.one if i == j else D.zero for j in range(m)] for i in range(m)]
        Uinv = [[D.one if i == j else D.zero for j in range(m)] for i in range(m)]
        V = [[D.one if i == j else D.zero for j in range(n)] for i in range(n)]
        Vinv = [[D.one if i == j else D.zero for j in range(n)] for i in range(n)]

        def row_swap(i1, i2):
            if i1 == i2:
                return
            A[i1], A[i2] = A[i2], A[i1]
            U[i1], U[i2] = U[i2], U[i1]
            for r in Uinv:
                r[i1], r[i2] = r[i2], r[i1]

        def col_swap(j1, j2):
            if j1 == j2:
                return
            for r in A:
                r[j1], r[j2] = r[j2], r[j1]
            for r in V:
                r[j1], r[j2] = r[j2], r[j1]
            Vinv[j1], Vinv[j2] = Vinv[j2], Vinv[j1]

        def row_sub(i, isrc, q):
            # row i -= q * row isrc;  Uinv column isrc += q * column i
            if D.is_zero(q):
                return
            A[i] = [D.sub(a, D.mul(q, b)) for a, b in zip(A[i], A[isrc])]
            U[i] = [D.sub(a, D.mul(q, b)) for a, b in zip(U[i], U[isrc])]
            for r in Uinv:
                r[isrc] = D.add(r[isrc], D.mul(q, r[i]))

        def col_sub(j, jsrc, q):
            if D.is_zero(q):
                return
            for r in A:
                r[j] = D.sub(r[j], D.mul(q, r[jsrc]))
            for r in V:
                r[j] = D.sub(r[j], D.mul(q, r[jsrc]))
            Vinv[jsrc] = [D.add(a, D.mul(q, b)) for a, b in zip(Vinv[jsrc], Vinv[j])]

        def row_scale(i, u):
            if u == D.one:
                return
            uinv = D.unit_inv(u)
            A[i] = [D.mul(u, a) for a in A[i]]
            U[i] = [D.mul(u, a) for a in U[i]]
            for r in Uinv:
                r[i] = D.mul(uinv, r[i])

        t = 0
        while True:
            pivot = None
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    a = A[i][j]
                    if not D.is_zero(a):
                        key = (D.norm(a), i, j)
                        if best is None or key < best:
                            best = key
                            pivot = (i, j)
            if pivot is None:
                break
            row_swap(t, pivot[0])
            col_swap(t, pivot[1])
            while True:
                dirty = False
                for i in range(t + 1, m):
                    a = A[i][t]
                    if D.is_zero(a):
                        continue
                    q, r = D.divmod(a, A[t][t])
                    row_sub(i, t, q)
                    if not D.is_zero(r):
                        dirty = True
                if dirty:
                    i0 = min((i for i in range(t, m) if not D.is_zero(A[i][t])),
                             key=lambda i: (D.norm(A[i][t]), i))
                    row_swap(t, i0)
                    continue
                dirty = False
                for j in range(t + 1, n):
                    a = A[t][j]
                    if D.is_zero(a):
                        continue
                    q, r = D.divmod(a, A[t][t])
                    col_sub(j, t, q)
                    if not D.is_zero(r):
                        dirty = True
                if dirty:
                    j0 = min((j for j in range(t, n) if not D.is_zero(A[t][j])),
                             key=lambda j: (D.norm(A[t][j]), j))
                    col_swap(t, j0)
                    continue
                # Pivot must divide the whole remaining block.
                offender = None
                for i in range(t + 1, m):
                    for j in range(t + 1, n):
                        if not D.divides(A[t][t], A[i][j]):
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                A[t] = [D.add(a, b) for a, b in zip(A[t], A[offender])]
                U[t] = [D.add(a, b) for a, b in zip(U[t], U[offender])]
                for r in Uinv:
                    r[offender] = D.sub(r[offender], r[t])
            c, u = D.canon(A[t][t])
            row_scale(t, u)
            t += 1
        return (Mat(D, A, m, n), Mat(D, U, m, m), Mat(D, V, n, n),
                Mat(D, Uinv, m, m), Mat(D, Vinv, n, n))

    def diagonal(self):
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]

    def solve(self, b):
        """A particular exact solution ``x`` of ``self @ x == b``, or ``None``."""
        D = self.domain
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        H, U = self.hnf()
        y = [D.zero] * self.cols
        pivots = []
        for j in range(self.cols):
            prow = next((i for i in range(self.rows) if not D.is_zero(H.data[i][j])), None)
            if prow is not None:
                pivots.append((prow, j))
        for prow, j in pivots:
            acc = b[prow]
            for prow2, j2 in pivots:
                if j2 >= j:
                    break
                acc = D.sub(acc, D.mul(H.data[prow][j2], y[j2]))
            q, r = D.divmod(acc, H.data[prow][j])
            if not D.is_zero(r):
                return None
            y[j] = q
        x = U.mul_vec(y)
        check = self.mul_vec(x)
        if any(not D.is_zero(D.sub(c, t)) for c, t in zip(check, b)):
            return None
        return x

    def kernel(self):
        """Columns generating ``{x : self @ x == 0}``, in canonical Hermite form."""
        D = self.domain
        H, U = self.hnf()
        zero_cols = [j for j in range(self.cols)
                     if all(D.is_zero(H.data[i][j]) for i in range(self.rows))]
        return U.take_cols(zero_cols).span_basis()

    def span_basis(self):
        """The nonzero columns of the Hermite form: canonical generators of the span."""
        D = self.domain
        H, _ = self.hnf()
        return H.take_cols([j for j in range(H.cols)
                            if any(not D.is_zero(row[j]) for row in H.data)])

    def inverse(self):
        """Exact inverse over the domain, or ``None`` if not unimodular."""
        if self.rows != self.cols:
            return None
        D = self.domain
        cols = []
        for j in range(self.rows):
            e = [D.one if i == j else D.zero for i in range(self.rows)]
            x = self.solve(e)
            if x is None:
                return None
            cols.append(x)
        return Mat.from_cols(D, cols, self.rows)

"""Exact dense matrices over a Euclidean backend.

Column-operation convention throughout: module relations are columns, so
the Hermite form is a *column* echelon form (``A @ U == H`` with ``U``
unimodular) and presentations compose directly with cokernels.

Pivots are chosen by minimal norm to limit coefficient growth; arithmetic
is exact, so blow-up is a speed concern only.

Linear algebra goes through two calls, each on one Hermite form: ``solve``
takes a matrix of right-hand sides and answers every column at once, and
``preimage`` gives the canonical generators of ``{x : A @ x in span(B)}``,
with ``kernel`` the preimage of zero.

``Mat`` is immutable and hashed by content, so the Hermite form, the Smith
form and the transform-free Smith diagonal are memoized per process on the
matrix itself: equal matrices built by different routes share one
computation.  The memos are bounded, because a form can be much larger than
its input.
"""

from __future__ import annotations

from .domains import BackendMismatch, BoundedMemo

NF_MEMO_BOUND = 32

_HNF_MEMO = BoundedMemo(NF_MEMO_BOUND)
_SNF_MEMO = BoundedMemo(NF_MEMO_BOUND)
_DIAG_MEMO = BoundedMemo(NF_MEMO_BOUND)


class Mat:
    """An immutable ``rows x cols`` matrix with entries in a backend domain.

    Zero-row and zero-column matrices are permitted and arise routinely as
    presentations of free and zero modules.
    """

    __slots__ = ("domain", "rows", "cols", "data")

    def __init__(self, domain, data, rows=None, cols=None):
        data = tuple(map(tuple, data))
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if tuple(map(len, data)) != (cols,) * rows:
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
        return cls.scalar(domain, n, domain.one)

    @classmethod
    def from_cols(cls, domain, cols, rows):
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
        add, mul = D.add, D.mul
        z = D.zero
        # Columns of other, each as its nonzero (index, entry) pairs.
        cols = [[(k, b) for k, b in enumerate(col) if b]
                for col in zip(*other.data)] if other.rows else [[]] * other.cols
        out = []
        for a in self.data:
            row = []
            for col in cols:
                acc = z
                for k, b in col:
                    if a[k]:
                        acc = add(acc, mul(a[k], b))
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
        sub, mul = D.sub, D.mul
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
            # column j -= q * column jsrc, skipping zero entries of jsrc
            if not q:
                return
            for r in H:
                if r[jsrc]:
                    r[j] = sub(r[j], mul(q, r[jsrc]))
            for r in U:
                if r[jsrc]:
                    r[j] = sub(r[j], mul(q, r[jsrc]))

        def col_scale(j, u):
            if u == D.one:
                return
            for r in H:
                r[j] = mul(u, r[j])
            for r in U:
                r[j] = mul(u, r[j])

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
            _, u = D.canon(H[row][col])
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
        d, u, v, _ = self._snf_full()
        return d, u, v

    def _snf_full(self):
        """Smith form plus the inverse of the row transform: ``(D, U, V, U^-1)``."""
        return _SNF_MEMO.get(self, self._compute_snf)

    def smith_diagonal(self):
        """The Smith diagonal: from the memoized full form, else without transforms."""
        full = _SNF_MEMO.entries.get(self)
        if full is not None:
            return tuple(full[0].diagonal())
        return _DIAG_MEMO.get(self, self._compute_diagonal)

    def _compute_diagonal(self):
        A = self._smith(False)[0]
        return tuple(A[i][i] for i in range(min(self.rows, self.cols)))

    def _compute_snf(self):
        D, m, n = self.domain, self.rows, self.cols
        A, U, V, Uinv = self._smith(True)
        return (Mat(D, A, m, n), Mat(D, U, m, m), Mat(D, V, n, n), Mat(D, Uinv, m, m))

    def _smith(self, transforms):
        # Without transforms, U, V and U^-1 start as empty slices of the
        # identity (m x 0, 0 x n and 0 x m): every operation still applies to
        # them at no cost, so the diagonal is exactly that of the full form.
        D = self.domain
        add, sub, mul = D.add, D.sub, D.mul
        m, n = self.rows, self.cols
        A = [list(r) for r in self.data]
        k, l = (m, n) if transforms else (0, 0)
        U = [[D.one if i == j else D.zero for j in range(k)] for i in range(m)]
        Uinv = [[D.one if i == j else D.zero for j in range(m)] for i in range(k)]
        V = [[D.one if i == j else D.zero for j in range(n)] for i in range(l)]

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

        def row_sub(i, isrc, q):
            # row i -= q * row isrc;  Uinv column isrc += q * column i;
            # zero source entries change nothing and are skipped
            if not q:
                return
            A[i] = [sub(a, mul(q, b)) if b else a for a, b in zip(A[i], A[isrc])]
            U[i] = [sub(a, mul(q, b)) if b else a for a, b in zip(U[i], U[isrc])]
            for r in Uinv:
                if r[i]:
                    r[isrc] = add(r[isrc], mul(q, r[i]))

        def col_sub(j, jsrc, q):
            if not q:
                return
            for r in A:
                if r[jsrc]:
                    r[j] = sub(r[j], mul(q, r[jsrc]))
            for r in V:
                if r[jsrc]:
                    r[j] = sub(r[j], mul(q, r[jsrc]))

        def row_scale(i, u):
            if u == D.one:
                return
            uinv = D.unit_inv(u)
            A[i] = [mul(u, a) for a in A[i]]
            U[i] = [mul(u, a) for a in U[i]]
            for r in Uinv:
                r[i] = mul(uinv, r[i])

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
                A[t] = [add(a, b) for a, b in zip(A[t], A[offender])]
                U[t] = [add(a, b) for a, b in zip(U[t], U[offender])]
                for r in Uinv:
                    r[offender] = sub(r[offender], r[t])
            _, u = D.canon(A[t][t])
            row_scale(t, u)
            t += 1
        return A, U, V, Uinv

    def diagonal(self):
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]

    def solve(self, b):
        """A particular exact solution ``X`` of ``self @ X == b``, or ``None``.

        ``b`` is a matrix of right-hand sides.  One Hermite form serves every
        column, and one product checks the whole answer.
        """
        self._check_domain(b)
        if b.rows != self.rows:
            raise ValueError("right-hand side row count mismatch")
        D = self.domain
        if not b.cols:
            return Mat.zero(D, self.cols, 0)
        H, U = self.hnf()
        pivots = []
        for j in range(self.cols):
            prow = next((i for i in range(self.rows) if not D.is_zero(H.data[i][j])), None)
            if prow is not None:
                pivots.append((prow, j))
        sub, mul = D.sub, D.mul
        ys = []
        for rhs in b.columns():
            y = [D.zero] * self.cols
            for k, (prow, j) in enumerate(pivots):
                acc = rhs[prow]
                hrow = H.data[prow]
                for _, j2 in pivots[:k]:
                    if hrow[j2] and y[j2]:
                        acc = sub(acc, mul(hrow[j2], y[j2]))
                q, r = D.divmod(acc, H.data[prow][j])
                if not D.is_zero(r):
                    return None
                y[j] = q
            ys.append(y)
        x = U @ Mat.from_cols(D, ys, self.cols)
        return x if self @ x == b else None

    def preimage(self, b):
        """Canonical generators of ``{x : self @ x in span(b)}``.

        One Hermite form of ``[self | b]``: the transform columns under its
        zero columns, cut to their first ``self.cols`` rows.
        """
        D = self.domain
        big = self.hstack(b)
        H, U = big.hnf()
        zero_cols = [j for j in range(big.cols)
                     if all(D.is_zero(H.data[i][j]) for i in range(big.rows))]
        return U.take_cols(zero_cols).take_rows(range(self.cols)).span_basis()

    def kernel(self):
        """Columns generating ``{x : self @ x == 0}``, in canonical Hermite form."""
        return self.preimage(Mat.zero(self.domain, self.rows, 0))

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
        return self.solve(Mat.identity(self.domain, self.rows))

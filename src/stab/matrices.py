"""Exact dense matrices over a Euclidean backend.

Column-operation convention throughout: module relations are columns, so
the Hermite form is a *column* echelon form (``A @ U == H`` with ``U``
unimodular) and presentations compose directly with cokernels.

Pivots are chosen by minimal norm to limit coefficient growth; arithmetic
is exact, so blow-up is a speed concern only.

Each normal form eliminates on one stacked list of rows (Cohen, GTM 138,
2.4): column operations turn ``[A; I]`` into ``[H; U]``; the Smith loop
runs column operations on ``[A; V]`` and row operations on ``[A | U]``, the
inverses of those on ``U^-1``.  A Hermite form's nonzero columns lead with
strictly increasing pivot rows, which ``_pivots`` reads for ``solve``,
``preimage`` and ``span_basis``.  A matrix already in Smith form, as
diagonal presentations mostly are, is read off without building anything:
its own diagonal, or itself with the shared identities as transforms.  That
is exactly what the loop would give, as each minimal ``(norm, i, j)`` pivot
is then ``(t, t)`` and nothing needs clearing.

Linear algebra goes through two calls, each on one Hermite form: ``solve``
takes a matrix of right-hand sides and answers every column at once, and
``preimage`` gives the canonical generators of ``{x : A @ x in span(B)}``.
A kernel is the preimage of a ``B`` with no columns, and the inverse of a
square matrix is ``solve`` of the identity.  ``preimage`` of a *monomial*
``A`` (at most one nonzero in each row and each column, as in diagonal
presentations and their Kronecker blocks) by a ``B`` with no column of two
nonzeros splits over a PID into one equation per entry: one gcd per row of
``B`` gives exactly the Hermite path's answer.  ``_support`` reads the
nonzeros for this, for the pruning of module relations and for membership.
Every matrix with at most one nonzero per column is built by
``Mat.monomial``: scalar matrices, the monomial ``preimage`` answer, and in
the module layer pruned relations and diagonal presentations.

An operation whose answer is one of its operands returns that operand: a
product with an identity (recognised by its entries), ``hstack`` with a side
of no columns, ``kron`` with a 1 x 1 identity, and ``take_cols`` or
``take_rows`` of every index in order.  An empty product is the zero matrix
of its shape.  ``Mat.identity`` and ``Mat.zero`` return one shared instance
per backend and shape.  Shape and backend checks run first, so every error
is unchanged.

Normal forms are computed each time they are asked for, with no cache: a
scan reuses a repeated row whole and a module keeps its own invariants and
transforms, so in the packaged scenarios a Smith form asked for again is
that of a matrix already in Smith form, which is read off.

``Mat`` is immutable and hashed by content.  Every immutable class of the
library derives from ``_Frozen``, whose one ``__setattr__`` raises, so a
constructor fills its slots through their member descriptors, which the
classes built most often bind once with ``_slot_setters``.
"""

from __future__ import annotations

from .domains import BackendMismatch

# One shared instance per key: ``Mat`` is immutable.
_ZEROS = {}
_IDENTITIES = {}


def _eye(D, rows, cols):
    return [[D.one if i == j else D.zero for j in range(cols)] for i in range(rows)]


def _col_swap(W, j1, j2):
    if j1 != j2:
        for r in W:
            r[j1], r[j2] = r[j2], r[j1]


def _col_sub(W, j, jsrc, q, op, mul):
    """Column ``j = op(column j, q * column jsrc)``, skipping zero entries of ``jsrc``."""
    if q:
        for r in W:
            if r[jsrc]:
                r[j] = op(r[j], mul(q, r[jsrc]))


def _clear_row(W, i, t, n, D):
    """Reduce row ``i`` right of column ``t`` (up to ``n``) by column
    operations with column ``t``; true when every remainder is zero."""
    row, sub, mul = W[i], D.sub, D.mul
    clean = True
    for j in range(t + 1, n):
        if row[j]:
            q, r = D.divmod(row[j], row[t])
            _col_sub(W, j, t, q, sub, mul)
            if r:
                clean = False
    return clean


def _support(M):
    """The ``(row, col, entry)`` nonzeros of ``M`` in column order, or ``None``
    when some column has two nonzero entries."""
    out = []
    for j, col in enumerate(zip(*M.data)):
        nonzero = [*filter(None, col)]
        if nonzero:
            if len(nonzero) > 1:
                return None
            a = nonzero[0]
            # Zero is the only falsy element, so ``a`` occurs once in ``col``.
            out.append((col.index(a), j, a))
    return out


def _row_gcds(D, support):
    """The gcd of the entries of each occupied row of a support, by row; a
    row with one entry keeps that entry as it is."""
    gcds = {}
    for i, _, a in support:
        gcds[i] = D.gcd(gcds[i], a) if i in gcds else a
    return gcds


def _monomial(M):
    """The support of ``M`` when no row or column has two nonzeros, else ``None``."""
    support = _support(M)
    if support is None or len({i for i, _, _ in support}) < len(support):
        return None
    return support


def _is_smith(M):
    """True when ``M`` is its own Smith form: zero off the diagonal, with
    canonical diagonal entries each dividing the next (so zeros trail)."""
    D = M.domain
    for i, row in enumerate(M.data):
        if any(row[:i]) or any(row[i + 1:]):
            return False
    diag = M.diagonal()
    return (all(D.canon(d)[1] == D.one for d in diag)
            and all(map(D.divides, diag, diag[1:])))


def _in_order(indices, n):
    """True when ``indices`` is every index ``0, ..., n - 1`` in order."""
    return len(indices) == n and [*indices] == [*range(n)]


def _pivots(H):
    """The pivot row of each nonzero column of a Hermite form ``H``.

    Those columns lead and their pivot rows strictly increase, so one
    downward pass finds them all; their count is the rank.
    """
    rows, i = [], 0
    for j in range(H.cols):
        while i < H.rows and not H.data[i][j]:
            i += 1
        if i == H.rows:
            break
        rows.append(i)
        i += 1
    return rows


class _Frozen:
    """Base of the immutable classes: setting any attribute raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _slot_setters(cls):
    """Each slot's member-descriptor ``__set__``, for a :class:`_Frozen` class."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class Mat(_Frozen):
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
        _set_domain(self, domain)
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_data(self, data)

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, domain, rows, cols):
        key = (domain, rows, cols)
        m = _ZEROS.get(key)
        if m is None:
            m = _ZEROS[key] = cls(domain, ((domain.zero,) * cols,) * rows, rows, cols)
        return m

    @classmethod
    def identity(cls, domain, n):
        m = _IDENTITIES.get((domain, n))
        if m is None:
            m = _IDENTITIES[domain, n] = cls(domain, _eye(domain, n, n), n, n)
        return m

    @classmethod
    def from_cols(cls, domain, cols, rows):
        if not cols:
            return cls.zero(domain, rows, 0)
        return cls(domain, [[c[i] for c in cols] for i in range(rows)], rows, len(cols))

    @classmethod
    def monomial(cls, domain, rows, entries):
        """Column ``j`` holds ``a`` in row ``i`` for ``entries[j] == (i, a)``,
        and is zero elsewhere; no entries give the shared ``Mat.zero``."""
        if not entries:
            return cls.zero(domain, rows, 0)
        data = [[domain.zero] * len(entries) for _ in range(rows)]
        for j, (i, a) in enumerate(entries):
            data[i][j] = a
        return cls(domain, data, rows, len(entries))

    @classmethod
    def scalar(cls, domain, n, elem):
        return cls.monomial(domain, n, [(i, elem) for i in range(n)])

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
        if self.domain is not other.domain:
            raise BackendMismatch("matrices over different backends")

    def _is_identity(self):
        return (self.rows == self.cols
                and self.data == Mat.identity(self.domain, self.rows).data)

    # -- arithmetic ----------------------------------------------------------

    def __matmul__(self, other):
        self._check_domain(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        D = self.domain
        if not (self.rows and self.cols and other.cols):
            return Mat.zero(D, self.rows, other.cols)
        if other._is_identity():
            return self
        if self._is_identity():
            return other
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
        if not other.cols:
            return self
        if not self.cols:
            return other
        return Mat(self.domain, [ra + rb for ra, rb in zip(self.data, other.data)],
                   self.rows, self.cols + other.cols)

    def vstack(self, other):
        self._check_domain(other)
        if self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        return Mat(self.domain, self.data + other.data, self.rows + other.rows, self.cols)

    def take_cols(self, indices):
        if _in_order(indices, self.cols):
            return self
        return Mat(self.domain, [[r[j] for j in indices] for r in self.data],
                   self.rows, len(indices))

    def take_rows(self, indices):
        if _in_order(indices, self.rows):
            return self
        return Mat(self.domain, [self.data[i] for i in indices], len(indices), self.cols)

    def kron(self, other):
        """Kronecker product; index ``(i, k)`` maps to ``i * other.rows + k``."""
        self._check_domain(other)
        D = self.domain
        rows = self.rows * other.rows
        cols = self.cols * other.cols
        if not (rows and cols):
            return Mat.zero(D, rows, cols)
        if other.data == ((D.one,),):
            return self
        if self.data == ((D.one,),):
            return other
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
        # Column operations on [A; I] leave [H; U].
        D = self.domain
        norm, mul = D.norm, D.mul
        m, n = self.rows, self.cols
        W = [list(r) for r in self.data] + _eye(D, n, n)
        col = 0
        for row in range(m):
            if col >= n:
                break
            r = W[row]
            if not any(r[col:]):
                continue
            while True:
                _col_swap(W, col, min((j for j in range(col, n) if r[j]),
                                      key=lambda j: (norm(r[j]), j)))
                if _clear_row(W, row, col, n, D):
                    break
            _, u = D.canon(r[col])
            if u != D.one:
                for w in W:
                    w[col] = mul(u, w[col])
            for j in range(col):
                _col_sub(W, j, col, D.divmod(r[j], r[col])[0], D.sub, mul)
            col += 1
        return (Mat(D, W[:m], m, n), Mat(D, W[m:], n, n))

    def snf(self):
        """Smith normal form: ``(D, U, V)`` with ``U @ self @ V == D``.

        ``D`` is diagonal with canonical entries forming a divisibility chain;
        ``U`` and ``V`` are unimodular.
        """
        d, u, v, _ = self._snf_full()
        return d, u, v

    def _snf_full(self):
        """Smith form plus the inverse of the row transform: ``(D, U, V, U^-1)``."""
        D, m, n = self.domain, self.rows, self.cols
        if _is_smith(self):
            eye_m = Mat.identity(D, m)
            return self, eye_m, Mat.identity(D, n), eye_m
        W, Uinv = self._smith(True)
        return (Mat(D, [r[:n] for r in W[:m]], m, n), Mat(D, [r[n:] for r in W[:m]], m, m),
                Mat(D, W[m:], n, n), Mat(D, Uinv, m, m))

    def smith_diagonal(self):
        """The Smith diagonal, computed without transforms."""
        if _is_smith(self):
            return tuple(self.diagonal())
        W = self._smith(False)[0]
        return tuple(W[i][i] for i in range(min(self.rows, self.cols)))

    def _smith(self, transforms):
        """The Smith loop on ``[A | U; V]``, returning it and ``U^-1``.

        Column operations act on ``[A; V]``, row operations on ``[A | U]``,
        and ``U^-1`` takes the inverse column operations.  Without
        transforms, ``U``, ``V`` and ``U^-1`` are empty (m x 0, 0 x n and
        0 x m): every operation still applies to them at no cost, so the
        diagonal is exactly that of the full form.
        """
        D = self.domain
        add, sub, mul, norm, divides = D.add, D.sub, D.mul, D.norm, D.divides
        m, n = self.rows, self.cols
        W = [list(a) for a in self.data]
        Uinv = []
        if transforms:
            for r, u in zip(W, _eye(D, m, m)):
                r += u
            W += _eye(D, n, n)
            Uinv = _eye(D, m, m)
        t = 0
        while True:
            best = None
            for i in range(t, m):
                row = W[i]
                for j in range(t, n):
                    if row[j]:
                        key = (norm(row[j]), i, j)
                        if best is None or key < best:
                            best = key
            if best is None:
                break
            _, i0, j0 = best
            W[t], W[i0] = W[i0], W[t]
            _col_swap(Uinv, t, i0)
            _col_swap(W, t, j0)
            while True:
                dirty = False
                for i in range(t + 1, m):
                    a = W[i][t]
                    if not a:
                        continue
                    q, r = D.divmod(a, W[t][t])
                    if q:
                        # row i -= q * row t;  U^-1 column t += q * column i
                        W[i] = [sub(a, mul(q, b)) if b else a for a, b in zip(W[i], W[t])]
                        _col_sub(Uinv, t, i, q, add, mul)
                    if r:
                        dirty = True
                if dirty:
                    i0 = min((i for i in range(t, m) if W[i][t]),
                             key=lambda i: (norm(W[i][t]), i))
                    W[t], W[i0] = W[i0], W[t]
                    _col_swap(Uinv, t, i0)
                    continue
                if not _clear_row(W, t, t, n, D):
                    _col_swap(W, t, min((j for j in range(t, n) if W[t][j]),
                                        key=lambda j: (norm(W[t][j]), j)))
                    continue
                # Pivot must divide the whole remaining block; the first row
                # with an entry it does not divide is added to row t.
                p = W[t][t]
                for i in range(t + 1, m):
                    if not all(divides(p, a) for a in W[i][t + 1:n]):
                        break
                else:
                    break
                W[t] = [add(a, b) for a, b in zip(W[t], W[i])]
                for r in Uinv:
                    r[i] = sub(r[i], r[t])
            _, u = D.canon(W[t][t])
            if u != D.one:
                W[t] = [mul(u, a) for a in W[t]]
                uinv = D.unit_inv(u)
                for r in Uinv:
                    r[t] = mul(uinv, r[t])
            t += 1
        return W, Uinv

    def diagonal(self):
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]

    def solve(self, b):
        """A particular exact solution ``X`` of ``self @ X == b``, or ``None``.

        ``b`` is a matrix of right-hand sides: one Hermite form serves every
        column, and one product checks the whole answer.
        """
        self._check_domain(b)
        if b.rows != self.rows:
            raise ValueError("right-hand side row count mismatch")
        D = self.domain
        if not b.cols:
            return Mat.zero(D, self.cols, 0)
        H, U = self.hnf()
        sub, mul = D.sub, D.mul
        pivots = _pivots(H)
        ys = []
        for rhs in b.columns():
            # H's nonzero columns lead: column k has its pivot in row pivots[k].
            y = []
            for prow in pivots:
                acc = rhs[prow]
                hrow = H.data[prow]
                for j, yj in enumerate(y):
                    if hrow[j] and yj:
                        acc = sub(acc, mul(hrow[j], yj))
                q, r = D.divmod(acc, hrow[len(y)])
                if r:
                    return None
                y.append(q)
            ys.append(y + [D.zero] * (self.cols - len(y)))
        x = U @ Mat.from_cols(D, ys, self.cols)
        return x if self @ x == b else None

    def preimage(self, b):
        """Canonical generators of ``{x : self @ x in span(b)}``.

        For a monomial ``self`` and a ``b`` with no column of two nonzeros,
        ``span(b)`` is the sum of ``(g_i) e_i`` over the gcds ``g_i`` of the
        nonzero rows of ``b``, so the preimage is a sum of ``(c_j) e_j``
        read entrywise.  Otherwise one Hermite form of ``[self | b]``: the
        transform columns under its zero columns, cut to their first
        ``self.cols`` rows.
        """
        self._check_domain(b)
        if b.rows != self.rows:
            raise ValueError("right-hand side row count mismatch")
        support = _monomial(self)
        b_support = None if support is None else _support(b)
        if b_support is None:
            big = self.hstack(b)
            H, U = big.hnf()
            zero_cols = range(len(_pivots(H)), big.cols)
            return U.take_cols(zero_cols).take_rows(range(self.cols)).span_basis()
        D, n = self.domain, self.cols
        gcds = _row_gcds(D, b_support)
        # A zero column of self keeps e_j.  For an entry a in row i,
        # a * x_j lies in (g_i) iff x_j lies in (g_i / gcd(a, g_i)), and only
        # x_j = 0 lands in a zero row of b.
        pivots = [D.one] * n
        for i, j, a in support:
            g = gcds.get(i)
            pivots[j] = None if g is None else D.canon(D.exact_div(g, D.gcd(a, g)))[0]
        # Canonical pivots in strictly increasing rows: already the Hermite
        # form of the span.
        return Mat.monomial(D, n, [(j, c) for j, c in enumerate(pivots) if c is not None])

    def span_basis(self):
        """The nonzero columns of the Hermite form: canonical generators of the span."""
        H, _ = self.hnf()
        return H.take_cols(range(len(_pivots(H))))


_set_domain, _set_rows, _set_cols, _set_data = _slot_setters(Mat)

"""Euclidean-domain backends: arbitrary-precision integers and GF(p)[x].

Every higher layer (matrices, modules, functors, scans) is generic over a
backend object exposing exact ring arithmetic, Euclidean division, extended
gcd, factorization into canonical primes, and canonical associates.
``gcd_ext`` has no caller left in the library; it stays as the backends'
Bezout operation, which the test references call and
``perfbench/tracer.py`` patches by name.

Backends are interned (``Integers()`` is ``ZZ``, ``PolyOverFp(p)`` is
``poly_ring(p)``), so equality and hashing are the default ones, by
identity, at C speed.

Element representations are plain hashable Python values:

* integers     -- Python ``int`` (arbitrary precision),
* polynomials  -- tuples of coefficients low-to-high degree, coefficients
                  reduced into ``{0, ..., p-1}``, no trailing zeros, with
                  ``()`` for the zero polynomial.  The arithmetic expects
                  its inputs in this form and returns results in it.

In both representations zero (``0`` or ``()``) is the only falsy element,
so callers may test ``if a:`` for "``a`` is nonzero"; the matrix
eliminations skip zero entries that way.

Canonical associates are positive integers and monic polynomials, so ideal
and invariant-factor equality reduce to element equality.

GF(p)[x] arithmetic keeps the tuple representation but works around Python's
per-coefficient cost.  ``mul`` packs both operands into one integer each
(Kronecker substitution, with ``k``-byte slots, ``k`` the fewest bytes that
hold ``n (p-1)^2`` for an ``n``-coefficient operand, so no product
coefficient carries), multiplies once and unpacks, for every
characteristic; one-byte slots pack and reduce through ``bytes``, and a
constant operand is scaled directly.  ``pow`` is square-and-multiply over
each backend's ``mul``.  ``gcd`` is plain remainder Euclid made monic,
without the Bezout cofactors that ``gcd_ext`` carries.

``saturate_part(d, g)``, the part of ``d`` supported on the primes of ``g``,
is ``gcd(d, g^k mod d)`` with ``k`` the bit length of ``d`` over ``Z`` and
its coefficient count over GF(p)[x], both at least any multiplicity in ``d``:
``O(log k)`` modular squarings, not one division per prime factor removed.

Factorization is desk-scale by design: trial division plus Brent's rho for
integers, whose cost grows with the square root of the second-largest prime
factor (a product of two 40-bit primes takes under a second, two 48-bit
primes up to about 16 s); for GF(p)[x], Yun's squarefree loop, linear in
the multiplicity, then distinct-degree and equal-degree splitting.  Results
are cached per process in a bounded ``functools.lru_cache``.
"""

from __future__ import annotations

import functools
import math
import random
from itertools import compress, zip_longest


FACTOR_MEMO_BOUND = 1024
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_RHO_BLOCK = 128  # steps of Brent's rho whose differences share one gcd


@functools.lru_cache(maxsize=FACTOR_MEMO_BOUND)
def _factored(backend, a):
    """``backend._factor(a)`` as a tuple, cached by ``(backend, canonical a)``."""
    return backend._factor(a)


class BackendMismatch(TypeError):
    """Raised when elements of different backends are combined."""


class ZeroInputError(ZeroDivisionError):
    """Raised when an operation requires a nonzero element."""


def _xgcd_int(a, b):
    # Maintain the invariants:
    #          x * a +      y * b ==      g
    #     next_x * a + next_y * b == next_g
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    return g, x, y


def _is_probable_prime(n):
    """Miller-Rabin on the primes to 41: exact below 3317044064679887385961981
    (3.3 * 10^24, psi_13), a strong probable-prime test above it."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n):
    """A proper factor of the odd composite ``n`` by Brent's rho (BIT 20, 1980).

    Each block of steps multiplies its differences mod ``n`` into one gcd; a
    block that meets ``n`` is replayed step by step, and if that meets ``n``
    too, the walk restarts with a new constant.  Seeded from ``n``, so the
    factor found is deterministic.
    """
    rng = random.Random(n)
    while True:
        c = rng.randrange(1, n)
        y = rng.randrange(2, n)
        g = q = r = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BLOCK, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BLOCK
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _valuation(n, p):
    """``(v, n // p^v)`` for the multiplicity ``v`` of ``p`` in ``n != 0``:
    divide by ``p, p^2, p^4, ...`` while they divide, then by each of them
    again, largest first, for the binary digits of the rest of ``v``."""
    powers = []
    while n % p == 0:
        powers.append(p)
        n, p = n // p, p * p
    v = (1 << len(powers)) - 1
    for k in reversed(range(len(powers))):
        if n % powers[k] == 0:
            n, v = n // powers[k], v + (1 << k)
    return v, n


def _factor_int(n):
    factors = {}
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            factors[p], n = _valuation(n, p)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return factors


class _Backend:
    """Operations written once over each backend's primitives."""

    def is_zero(self, a):
        return not a

    def exact_div(self, a, b):
        q, r = self.divmod(a, b)
        if r:
            raise ValueError(f"{self.elem_str(b)} does not divide {self.elem_str(a)}")
        return q

    def pow(self, a, n):
        if n < 0:
            raise ValueError("negative exponent")
        result = self.one
        while n:
            if n & 1:
                result = self.mul(result, a)
            n >>= 1
            if n:
                a = self.mul(a, a)
        return result

    def lcm(self, a, b):
        if not a or not b:
            return self.zero
        return self.canon(self.exact_div(self.mul(a, b), self.gcd(a, b)))[0]

    def saturate_part(self, d, g):
        """The divisor of ``d`` supported on primes dividing ``g``, canonical:
        ``gcd(d, g^k mod d)`` for ``k`` at least every multiplicity in ``d``
        (Bernstein, J. Algorithms 54, 2005)."""
        if self.is_zero(d):
            raise ZeroInputError("saturate_part of zero")
        return self.gcd(d, self._powmod(g, self._mult_bound(d), d))


class Integers(_Backend):
    """The rational integers with canonical associates the positive integers."""

    kind = "integers"
    characteristic = None
    zero = 0
    one = 1

    def is_unit(self, a):
        return a == 1 or a == -1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def _powmod(self, a, n, modulus):
        return pow(a, n, modulus)

    def _mult_bound(self, d):
        # A prime power p^e dividing d has e <= log2 |d| < bit length.
        return abs(d).bit_length()

    def divmod(self, a, b):
        if b == 0:
            raise ZeroInputError("division by zero")
        return divmod(a, b)

    def divides(self, a, b):
        if a == 0:
            return b == 0
        return b % a == 0

    def norm(self, a):
        return abs(a)

    def canon(self, a):
        """Return ``(c, u)`` with ``c = u*a`` canonical (nonnegative)."""
        if a < 0:
            return -a, -1
        return a, 1

    def unit_inv(self, u):
        if u not in (1, -1):
            raise ValueError(f"{u} is not a unit")
        return u

    def gcd_ext(self, a, b):
        g, u, v = _xgcd_int(a, b)
        if g == 0:
            return 0, 1, 0
        if g < 0:
            g, u, v = -g, -u, -v
        return g, u, v

    def gcd(self, a, b):
        return math.gcd(a, b)

    def factor(self, a):
        """Factor ``a`` into a sorted list of ``(prime, multiplicity)`` pairs."""
        if a == 0:
            raise ZeroInputError("cannot factor zero")
        return list(_factored(self, abs(a)))

    def _factor(self, n):
        return tuple(sorted(_factor_int(n).items()))

    def prime_key(self, p):
        return p

    def elem_str(self, a):
        return str(a)

    def elem_to_json(self, a):
        return str(a)

    def elem_from_json(self, v):
        if isinstance(v, bool):
            raise ValueError("integer element expected")
        if isinstance(v, int):
            return v
        if isinstance(v, str):
            return int(v.strip())
        raise ValueError(f"cannot read integer element from {v!r}")

    def descriptor(self):
        return {"kind": "integers"}

    def __new__(cls):
        return ZZ

    def __repr__(self):
        return "ZZ"


ZZ = object.__new__(Integers)


def _packed(coeffs, k):
    """The integer with ``coeffs`` in ``k``-byte little-endian slots, low first."""
    to_bytes = int.to_bytes
    return int.from_bytes(b"".join([to_bytes(c, k, "little") for c in coeffs]), "little")


def _ptrim(coeffs):
    if not any(coeffs):
        return ()
    i = len(coeffs)
    while not coeffs[i - 1]:
        i -= 1
    return tuple(coeffs[:i])


class PolyOverFp(_Backend):
    """Univariate polynomials over the prime field GF(p), monic canonical form."""

    kind = "poly"
    zero = ()
    one = (1,)

    def __new__(cls, p):
        ring = _POLY_RINGS.get(p)
        if ring is None:
            if not _is_probable_prime(p):
                raise ValueError(f"characteristic {p} is not prime")
            ring = _POLY_RINGS[p] = super().__new__(cls)
            ring.p = ring.characteristic = p
            ring._mod_byte = bytes(i % p for i in range(256))
        return ring

    def const(self, c):
        return _ptrim([c % self.p])

    def is_unit(self, a):
        return len(a) == 1

    def deg(self, a):
        return len(a) - 1

    def add(self, a, b):
        if not b:
            return a
        if not a:
            return b
        p = self.p
        out = [(x + y) % p for x, y in zip_longest(a, b, fillvalue=0)]
        return tuple(out) if len(a) != len(b) else _ptrim(out)

    def sub(self, a, b):
        if not b:
            return a
        p = self.p
        out = [(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)]
        return tuple(out) if len(a) != len(b) else _ptrim(out)

    def mul(self, a, b):
        # Leading coefficients multiply to a nonzero one, so nothing to trim.
        if len(a) > len(b):
            a, b = b, a
        n = len(a)
        p = self.p
        if n <= 1:
            if not a:
                return ()
            c = a[0]
            return b if c == 1 else tuple([c * cb % p for cb in b])
        # A product coefficient is a sum of at most n terms below p^2, so
        # slots of k bytes with 256^k > n * (p-1)^2 never carry.
        k = -(-(n * (p - 1) ** 2).bit_length() // 8)
        size = k * (n + len(b) - 1)
        if k == 1:
            prod = int.from_bytes(bytes(a), "little") * int.from_bytes(bytes(b), "little")
            return tuple(prod.to_bytes(size, "little").translate(self._mod_byte))
        raw = (_packed(a, k) * _packed(b, k)).to_bytes(size, "little")
        from_bytes = int.from_bytes
        return tuple([from_bytes(raw[i:i + k], "little") % p for i in range(0, size, k)])

    def divmod(self, a, b):
        if not b:
            raise ZeroInputError("division by zero polynomial")
        p = self.p
        db = len(b) - 1
        inv_lead = pow(b[-1], p - 2, p)
        low = b[:-1]
        if not any(low):
            # b = c * x^db, a constant when db == 0: shift and scale.
            q = a[db:]
            if inv_lead != 1:
                q = tuple([c * inv_lead % p for c in q])
            return q, _ptrim(a[:db])
        if len(a) <= db:
            return (), a
        # Each step cancels the leading coefficient, so only the lower ``db``
        # coefficients of ``b`` are applied; a coefficient is reduced when read.
        rem = list(a)
        q = [0] * (len(a) - db)
        for i in range(len(a) - 1, db - 1, -1):
            c = rem[i] % p
            if c:
                factor = c * inv_lead % p
                q[i - db] = factor
                for j, cb in enumerate(low, i - db):
                    rem[j] -= factor * cb
        # The top quotient coefficient is nonzero, so only the remainder trims.
        return tuple(q), _ptrim([c % p for c in rem[:db]])

    def divides(self, a, b):
        if not a:
            return not b
        return self.divmod(b, a)[1] == ()

    def norm(self, a):
        return len(a)

    def canon(self, a):
        """Return ``(c, u)`` with ``c = u*a`` monic."""
        if not a:
            return (), self.one
        if a[-1] == 1:
            return a, self.one
        u = self.const(pow(a[-1], self.p - 2, self.p))
        return self.mul(u, a), u

    def unit_inv(self, u):
        if len(u) != 1:
            raise ValueError(f"{u} is not a unit")
        return self.const(pow(u[0], self.p - 2, self.p))

    def gcd_ext(self, a, b):
        # Same invariant dance as the integer xgcd, with polynomial division.
        x, next_x = self.one, ()
        y, next_y = (), self.one
        g, next_g = a, b
        while next_g:
            q, r = self.divmod(g, next_g)
            x, next_x = next_x, self.sub(x, self.mul(q, next_x))
            y, next_y = next_y, self.sub(y, self.mul(q, next_y))
            g, next_g = next_g, r
        if not g:
            return (), self.one, ()
        c, u = self.canon(g)
        return c, self.mul(u, x), self.mul(u, y)

    def gcd(self, a, b):
        while b:
            a, b = b, self.divmod(a, b)[1]
        return self.canon(a)[0]

    def _derivative(self, a):
        p = self.p
        return _ptrim([(i * c) % p for i, c in enumerate(a)][1:])

    def _pth_root(self, a):
        # Coefficients live in GF(p) where Frobenius is the identity.
        return _ptrim([a[i] for i in range(0, len(a), self.p)])

    def _squarefree_parts(self, f):
        """``(g, m)`` pairs, g squarefree, with product g^m = f (monic), by Yun's
        loop: step ``i`` of a round splits off the primes of multiplicity ``i``
        mod p, and the next round takes the p-th root of what is left."""
        out = []
        mult = 1
        f = self.canon(f)[0]
        while self.deg(f) > 0:
            df = self._derivative(f)
            rest = self.gcd(f, df)
            b, c = self.exact_div(f, rest), self.exact_div(df, rest)
            i = 1
            while self.deg(b) > 0:
                d = self.sub(c, self._derivative(b))
                a = self.gcd(b, d)
                if self.deg(a) > 0:
                    out.append((a, mult * i))
                    rest = self.exact_div(rest, self.pow(a, i - 1))
                b, c = self.exact_div(b, a), self.exact_div(d, a)
                i += 1
            f = self._pth_root(rest)
            mult *= self.p
        return out

    def _distinct_degree(self, f):
        """Split squarefree monic f into ``(product-of-degree-d factors, d)``."""
        out = []
        x = (0, 1)
        h = x
        d = 0
        rest = f
        while self.deg(rest) >= 2 * (d + 1):
            d += 1
            h = self._powmod(h, self.p, rest)
            g = self.gcd(self.sub(h, x), rest)
            if self.deg(g) > 0:
                out.append((g, d))
                rest = self.exact_div(rest, g)
                h = self.divmod(h, rest)[1]
        if self.deg(rest) > 0:
            out.append((rest, self.deg(rest)))
        return out

    def _mult_bound(self, d):
        # A factor f^e of d has e <= deg d < len(d).
        return len(d)

    def _powmod(self, a, n, modulus):
        result = self.one
        base = self.divmod(a, modulus)[1]
        while n:
            if n & 1:
                result = self.divmod(self.mul(result, base), modulus)[1]
            n >>= 1
            if n:
                base = self.divmod(self.mul(base, base), modulus)[1]
        return result

    def _equal_degree(self, f, d, rng):
        """Cantor-Zassenhaus splitting of monic squarefree f, all factors degree d."""
        n = self.deg(f)
        if n == d:
            return [f]
        p = self.p
        while True:
            a = _ptrim([rng.randrange(p) for _ in range(n)])
            if self.deg(a) < 1:
                continue
            g = self.gcd(a, f)
            if 0 < self.deg(g) < n:
                split = g
            else:
                if p == 2:
                    # Trace map replaces the (p^d-1)/2 power trick.
                    t = a
                    acc = a
                    for _ in range(d - 1):
                        t = self._powmod(t, 2, f)
                        acc = self.add(acc, t)
                    split = self.gcd(acc, f)
                else:
                    e = (p**d - 1) // 2
                    b = self._powmod(a, e, f)
                    split = self.gcd(self.sub(b, self.one), f)
                if not (0 < self.deg(split) < n):
                    continue
            left = self._equal_degree(split, d, rng)
            right = self._equal_degree(self.exact_div(f, split), d, rng)
            return left + right

    def factor(self, a):
        """Factor into sorted ``(monic irreducible, multiplicity)`` pairs."""
        if not a:
            raise ZeroInputError("cannot factor zero")
        if self.is_unit(a):
            return []
        monic = self.canon(a)[0]
        return list(_factored(self, monic))

    def _factor(self, a):
        rng = random.Random((self.p, a).__hash__())
        factors = {}
        for squarefree, mult in self._squarefree_parts(a):
            for block, d in self._distinct_degree(squarefree):
                for irr in self._equal_degree(block, d, rng):
                    factors[irr] = factors.get(irr, 0) + mult
        return tuple(sorted(factors.items(), key=lambda kv: self.prime_key(kv[0])))

    def prime_key(self, q):
        return (len(q), q)

    def elem_str(self, a):
        if not a:
            return "0"
        terms = []
        for i in reversed(list(compress(range(len(a)), a))):
            c = a[i]
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("x" if c == 1 else f"{c}x")
            else:
                terms.append(f"x^{i}" if c == 1 else f"{c}x^{i}")
        return "+".join(terms)

    def elem_to_json(self, a):
        return list(a)

    def elem_from_json(self, v):
        if isinstance(v, list):
            if not all(isinstance(c, int) and not isinstance(c, bool) for c in v):
                raise ValueError("polynomial coefficients must be integers")
            return _ptrim([c % self.p for c in v])
        if isinstance(v, int) and not isinstance(v, bool):
            return self.const(v)
        raise ValueError(f"cannot read polynomial element from {v!r}")

    def descriptor(self):
        return {"kind": "poly", "characteristic": self.p}

    def __reduce__(self):
        return PolyOverFp, (self.p,)

    def __repr__(self):
        return f"GF({self.p})[x]"


_POLY_RINGS = {}
poly_ring = PolyOverFp


def int_in_range(value, least=None, most=None, what=None):
    """``value`` if it is an integer (a bool is not) in ``[least, most]``."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or least is not None and value < least or most is not None and value > most):
        span = (f" from {least} to {most}" if most is not None
                else f" >= {least}" if least is not None else "")
        raise ValueError(f"{what + ': ' if what else ''}expected an integer{span}, "
                         f"got {value!r}")
    return value


def domain_from_descriptor(desc):
    """Build a backend from its serialized descriptor."""
    if not isinstance(desc, dict):
        raise ValueError("backend descriptor must be an object")
    kind = desc.get("kind")
    if kind == "integers":
        return ZZ
    if kind == "poly":
        return poly_ring(int_in_range(desc.get("characteristic"), 2, what="characteristic"))
    raise ValueError(f"unknown backend kind {kind!r}")

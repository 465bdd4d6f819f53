"""Module invariants over a Euclidean backend: associated primes, annihilator,
depth, the local-torsion parts Gamma_I(M) and tau_S(M) as submodules with
their inclusions, and the common-multiplicatively-closed predicate and
cogenerator of element sets.

Over these one-dimensional backends an associated-prime set consists of the
zero ideal (iff the module has free rank) plus one prime ideal for every
prime dividing an invariant factor, and depth takes only the values
``0``, ``1`` and ``inf``.

Depth convention: ``dep_J(M) = inf`` whenever ``J M = M`` -- in particular
for the zero module.  This keeps depth sequences of eventually-vanishing
families well-defined.
"""

from __future__ import annotations

from .matrices import _Frozen
from .modules import Ideal, DomainViolation, killed_by, torsion_gens

DEPTH_INF = float("inf")


def _prime_order(p):
    # The zero ideal first, then the primes in the backend's prime order.
    return (0,) if p.is_zero() else (1, p.domain.prime_key(p.gen))


class AssSet(_Frozen):
    """A finite, canonically ordered set of prime ideals (:class:`Ideal` values)."""

    __slots__ = ("primes",)

    def __init__(self, primes):
        uniq = {p: None for p in sorted(primes, key=_prime_order)}
        object.__setattr__(self, "primes", tuple(uniq))

    def __iter__(self):
        return iter(self.primes)

    def __len__(self):
        return len(self.primes)

    def __contains__(self, p):
        return p in self.primes

    def __eq__(self, other):
        return isinstance(other, AssSet) and self.primes == other.primes

    def __hash__(self):
        return hash(self.primes)

    def to_json(self):
        return [repr(p) for p in self.primes]

    def __repr__(self):
        return "{" + ", ".join(repr(p) for p in self.primes) + "}"


def ass(m):
    """Associated primes read off the invariant-factor decomposition.

    >>> from stab.domains import ZZ
    >>> from stab.modules import FpModule
    >>> ass(FpModule.free(ZZ, 1).direct_sum(FpModule.cyclic(ZZ, 12)))
    {(0), (2), (3)}
    """
    D = m.domain
    primes = []
    if m.rank > 0:
        primes.append(Ideal(D, D.zero))
    # The quotients d1, d2/d1, ... of the chain have together exactly the
    # primes of the largest factor, and each is cheaper to factor than it.
    fs = m.factors
    for q in fs[:1] + tuple(D.exact_div(d, prev) for prev, d in zip(fs, fs[1:])):
        if not D.is_unit(q):
            primes.extend(Ideal(D, p) for p, _ in D.factor(q))
    return AssSet(primes)


def ann(m):
    """The annihilator ideal: (0) with free rank, else the largest factor."""
    D = m.domain
    if m.rank > 0:
        return Ideal(D, D.zero)
    if not m.factors:
        return Ideal(D, D.one)
    return Ideal(D, m.factors[-1])


def ann_contains(inner, outer):
    """``(inner) <= (outer)`` as ideals, i.e. outer divides inner."""
    return inner.domain.divides(outer.gen, inner.gen)


def depth(j, m, primes=None):
    """Depth of the ideal ``J = (g)`` on ``M``: one of 0, 1, DEPTH_INF.

    Depth is 0 exactly when ``J`` lies in an associated prime (Bruns-Herzog,
    1.2.1).  Given ``primes = ass(m)``, as a scan row has them, that is one
    division of ``g`` per prime.  Without them it is one gcd: some prime
    contains ``g`` iff ``gcd(d_last, g)`` is a non-unit for the largest
    invariant factor ``d_last``, or ``g = 0`` and M has free rank.  Otherwise,
    with free rank and g not a unit, depth is 1 (g is regular and annihilates
    M/gM).  In every other case ``J M = M`` and depth is ``inf`` (in
    particular for M = 0).
    """
    D = m.domain
    g = j.gen
    if primes is not None:
        if any(p.contains(g) for p in primes):
            return 0
    elif m.factors and not D.is_unit(D.gcd(m.factors[-1], g)):
        return 0
    if m.rank > 0 and not D.is_unit(g):
        return 0 if D.is_zero(g) else 1
    return DEPTH_INF


def gamma_gens(i, m):
    """Ambient columns generating ``Gamma_I(M)``, the elements killed by a
    power of I (:func:`~stab.modules.torsion_gens`; I = 0 kills everything)."""
    return torsion_gens(m, i.gen)


def gamma(i, m):
    """``(Gamma_I(M), include)``, the part and its inclusion into ``M``."""
    return m.submodule(gamma_gens(i, m))


class CmcSet(_Frozen):
    """A subset of the backend used by the torsion functor tau_S.

    Either an explicit finite list of elements, or the multiplicative closure
    of finitely many nonzero generators (closures are multiplicatively closed,
    hence common multiplicatively closed, by construction).
    """

    __slots__ = ("domain", "elems", "closure_gens")

    def __init__(self, domain, elems=None, closure_gens=None):
        if (elems is None) == (closure_gens is None):
            raise ValueError("give either explicit elements or closure generators")
        if closure_gens is not None:
            closure_gens = tuple(closure_gens)
            if not closure_gens:
                raise ValueError("closure needs at least one generator")
            if any(domain.is_zero(g) for g in closure_gens):
                raise ValueError("closure generators must be nonzero")
        else:
            elems = tuple(elems)
            if not elems:
                raise ValueError("an explicit set must be nonempty")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "elems", elems)
        object.__setattr__(self, "closure_gens", closure_gens)

    @classmethod
    def explicit(cls, domain, elems):
        return cls(domain, elems=list(elems))

    @classmethod
    def closure(cls, domain, gens):
        return cls(domain, closure_gens=list(gens))

    def is_explicit(self):
        return self.closure_gens is None

    def is_cmc(self):
        """Whether every pair (r, s) has a member divisible by lcm(r, s).

        A finite set is cmc exactly when it has a cogenerator: a member over
        the lcm of the first two, then one over the lcm of that member and
        the third, and so on, ends at one.
        """
        return not self.is_explicit() or self.cogenerator() is not None

    def cogenerator(self):
        """Some member divisible by every member, or ``None``."""
        D = self.domain
        if not self.is_explicit():
            if all(D.is_unit(g) for g in self.closure_gens):
                return D.one
            return None
        for s in self.elems:
            if all(D.divides(r, s) for r in self.elems):
                return s
        return None

    def __repr__(self):
        D = self.domain
        if self.is_explicit():
            return "{" + ", ".join(D.elem_str(e) for e in self.elems) + "}"
        return "closure{" + ", ".join(D.elem_str(g) for g in self.closure_gens) + "}"


class NotCmc(DomainViolation):
    """tau_S needs a common multiplicatively closed set."""


def tau_gens(s, m):
    """Ambient columns generating ``tau_S(M)``, the elements killed by some
    member of S.

    A finite cmc set has a cogenerator, so the torsion part is the kernel of
    multiplication by it; multiplicative closures reduce to ``Gamma`` at the
    product of the generators.
    """
    D = m.domain
    if s.is_explicit():
        s0 = s.cogenerator()
        if s0 is None:
            raise NotCmc(f"{s!r} is not common multiplicatively closed")
        return killed_by(m, s0)
    prod = D.one
    for g in s.closure_gens:
        prod = D.mul(prod, g)
    return gamma_gens(Ideal(D, prod), m)


def tau(s, m):
    """``(tau_S(M), include)``, the part and its inclusion into ``M``."""
    return m.submodule(tau_gens(s, m))

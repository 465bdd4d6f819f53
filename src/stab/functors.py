"""Evaluable covariant R-linear functors on finitely presented modules.

Variants:

* identity;
* coherent functors presented by a morphism ``f : K -> L``, evaluated as
  ``coker(Hom(L, N) -> Hom(K, N))``, with the precomposition matrix and the
  map ``g_*`` on ``Hom(K, -)`` each read off one product
  (:meth:`HomSpace.induced`); ``Hom(M, -)`` is the one presented by
  ``M -> 0``, whose value is ``Hom(M, N)`` itself, as ``Hom(0, N)`` is zero;
* homology at the middle of a tensored three-term complex whose ends may be
  localized, :class:`MiddleFiniteFunctor`, which houses ``Gamma_(g)`` as the
  homology of ``0 -> R -> R[1/g]``; :class:`ComplexHomology` is the
  middle-finite functor of a complex of finitely presented modules with plain
  ends, and houses ``Tor_i(M, -)`` through a free resolution.  Each value is
  :func:`homology`, presented on the kernel generators by one preimage;
* ``Gamma_I`` and ``tau_S``, whose values are the parts of :func:`gamma`
  and :func:`tau` built without their inclusions, and their quotient
  companions, which alone build ``N/<gens>``;
* the oscillating functor on the skeleton of finite torsion modules, with
  per-prime exponent sets; value and map read the kept prime powers off the
  invariant factors and build no skeleton.

Every functor is immutable and pure: ``F(N)`` returns a fresh module with a
deterministic presentation, and ``F.map(g)`` returns the induced morphism
between the recomputed values, read off the presentations they already
have.  A value presented on generators that span a submodule (homology, the
torsion parts) takes ``g``'s images of the source's generators written over
the target's, one ``solve``; a quotient value keeps ``g``'s matrix; an
oscillating map keeps, reduced mod p, the entries of ``g`` on the
invariant-factor coordinates between equal kept prime powers, one product.
"""

from __future__ import annotations

from typing import NamedTuple

from .domains import int_in_range
from .matrices import Mat
from .modules import (FpModule, Morphism, HomSpace, _diag_module, loc_tensor,
                      sub_contains, torsion_gens, DomainViolation, NotWellDefined,
                      SubmoduleError)
from .invariants import gamma_gens, tau_gens


def homology(f_mat, h):
    """``(H, gens)``: ``H = ker(h)/im(f)`` at the middle of
    ``A --f--> B --h--> C``, with ``f`` given by its matrix.

    ``gens = h.mat.preimage(C.relations)`` generate ``ker(h)``, and ``H`` is
    the submodule of ``B/im(f)`` they span, or ``B/im(f)`` itself when the
    kernel is all of ``B``.  Raises :class:`SubmoduleError` unless ``h f = 0``.
    """
    b, c = h.source, h.target
    if not c.contains(h.mat @ f_mat):
        raise SubmoduleError("the image of f is not inside the kernel of h")
    cok = b.quotient(f_mat)
    gens = h.mat.preimage(c.relations) if c.ambient else Mat.identity(b.domain, b.ambient)
    return (cok if gens._is_identity() else cok.spanned(gens)), gens


def _carried(source, target, gens, images):
    """The morphism ``source -> target`` that writes ``images`` over ``gens``,
    the target's generators; they are independent, so the solution is
    unique.  Raises :class:`SubmoduleError` when an image is outside their span."""
    carried = gens.solve(images)
    if carried is None:
        raise SubmoduleError("the map does not carry generators into generators")
    return Morphism(source, target, carried)


class Functor:
    """Interface: ``F(N)`` evaluates on objects, ``F.map(g)`` on morphisms."""

    def __call__(self, n):
        raise NotImplementedError

    def map(self, g):
        raise NotImplementedError


class IdentityFunctor(Functor):
    def __call__(self, n):
        return n

    def map(self, g):
        return g

    def __repr__(self):
        return "Id"


class CoherentFunctor(Functor):
    """``coker(h_L -> h_K)`` presented by a morphism ``f : K -> L``.

    >>> from stab.domains import ZZ
    >>> from stab.modules import FpModule, Morphism
    >>> from stab.matrices import Mat
    >>> r = FpModule.free(ZZ, 1)
    >>> f = Morphism(r, r, Mat(ZZ, [[2]]))
    >>> CoherentFunctor(f)(FpModule.cyclic(ZZ, 4)).decompose()
    (0, [2])
    """

    def __init__(self, presenting):
        self.presenting = presenting

    def __call__(self, n):
        return self._value(HomSpace(self.presenting.source, n))

    def _value(self, hk):
        """The value at ``N``, a quotient of the given ``hk = Hom(K, N)``."""
        f = self.presenting
        if not f.target.ambient:
            # ``Hom(L, N)`` is zero, so the cokernel is ``Hom(K, N)`` itself.
            return hk.module
        # One Hom space serves both ends when ``K`` and ``L`` share a presentation.
        hl = hk if f.source.relations == f.target.relations else HomSpace(f.target, hk.target)
        return hk.module.quotient(hk.induced(hl, f=f))

    def map(self, g):
        # ``g_*`` on the generators of ``Hom(K, -)``, which present both values.
        k = self.presenting.source
        ha, hb = HomSpace(k, g.source), HomSpace(k, g.target)
        return Morphism(self._value(ha), self._value(hb), hb.induced(ha, g=g))

    def __repr__(self):
        return f"coker(h_{self.presenting.target!r} -> h_{self.presenting.source!r})"


class HomFrom(CoherentFunctor):
    """``Hom(M, -)``, the coherent functor presented by ``M -> 0``."""

    def __init__(self, m):
        super().__init__(Morphism.zero_map(m, FpModule.zero(m.domain)))
        self.m = m

    def __repr__(self):
        return f"Hom({self.m!r}, -)"


def presentation_map(m):
    """An injective presentation ``R^s -> R^k`` with cokernel ``m``."""
    D = m.domain
    a = m.relations.span_basis()
    return Morphism(FpModule.free(D, a.cols), FpModule.free(D, m.ambient), a)


def ext_functor(m, i=1):
    """``Ext^i(M, -)`` for i in {0, 1}; i = 1 is coherent on a free presentation."""
    if i == 0:
        return HomFrom(m)
    if i == 1:
        return CoherentFunctor(presentation_map(m))
    raise ValueError("projective dimension over these backends is at most 1")


def tor_functor(m, i=1):
    """``Tor_i(M, -)`` for i in {0, 1} via the tensored free resolution."""
    if i not in (0, 1):
        raise ValueError("projective dimension over these backends is at most 1")
    pres = presentation_map(m)
    d2 = Morphism.zero_map(FpModule.zero(m.domain), pres.source)
    return ComplexHomology(d2, pres, i)


class _TorsionSplitFunctor(Functor):
    """A functor of the torsion part of ``N`` at ``subset``; subclasses set
    ``gens``, its generators (:func:`gamma_gens` or :func:`tau_gens`), and
    ``label``, the name shown before the subset."""

    def __init__(self, subset):
        self.subset = subset

    def __repr__(self):
        return f"{self.label}_{self.subset!r}"


class _TorsionPartFunctor(_TorsionSplitFunctor):
    """The part that :func:`gamma` or :func:`tau` returns, without its
    inclusion."""

    def __call__(self, n):
        return n.spanned(self.gens(self.subset, n))

    def map(self, g):
        # ``g`` on the source part's generators, written over the target part's.
        gens_a, gens_b = self.gens(self.subset, g.source), self.gens(self.subset, g.target)
        return _carried(g.source.spanned(gens_a), g.target.spanned(gens_b), gens_b,
                        g.mat @ gens_a)


class _TorsionQuotientFunctor(_TorsionSplitFunctor):
    """``N/<gens>``, the only builder of ``N/Gamma_I(N)`` and ``N/tau_S(N)``;
    maps keep their matrix."""

    def __call__(self, n):
        return n.quotient(self.gens(self.subset, n))

    def map(self, g):
        return Morphism(self(g.source), self(g.target), g.mat)


class GammaFunctor(_TorsionPartFunctor):
    gens, label = staticmethod(gamma_gens), "Gamma"


class ModGamma(_TorsionQuotientFunctor):
    gens, label = staticmethod(gamma_gens), "Id/Gamma"


class TauFunctor(_TorsionPartFunctor):
    gens, label = staticmethod(tau_gens), "tau"


class ModTau(_TorsionQuotientFunctor):
    gens, label = staticmethod(tau_gens), "Id/tau"


class EndSummand(NamedTuple):
    """One summand of a middle-finite complex end; localized when invert is set."""

    module: FpModule
    invert: object = None


def _tensor_ends(ends, n):
    """The direct sum of ``E (x) N`` over end summands, localized ones included."""
    out = FpModule.zero(n.domain)
    for s in ends:
        out = out.direct_sum(s.module.tensor(n) if s.invert is None
                             else loc_tensor(s.module, s.invert, n))
    return out


class MiddleFiniteFunctor(Functor):
    """``N -> H(sigma (x) N)`` for a middle-finite complex ``sigma = A -> B -> C``.

    ``B`` is finitely presented; the ends are direct sums of end summands,
    possibly localized.  The maps are block matrices of ring elements between
    ambient generators; blocks into or out of a localized summand are composed
    with the canonical localization map.  The composite is checked to vanish,
    summand by summand, up to the localization (an element of ``C[1/x]`` is
    zero iff it is x-power torsion in ``C``).  The tensored maps are checked
    on every evaluation, because maps of localized ends may not descend.
    A map given as ``None`` is zero.
    """

    def __init__(self, a_ends, b, c_ends, d_a, d_b):
        self.a_ends = tuple(a_ends)
        self.middle = b
        self.c_ends = tuple(c_ends)
        for side, ends in (("a", self.a_ends), ("c", self.c_ends)):
            for i, summand in enumerate(ends):
                if summand.invert is not None and b.domain.is_zero(summand.invert):
                    raise ValueError(f"{side}[{i}].invert: cannot invert zero")
        a_dim = sum(s.module.ambient for s in self.a_ends)
        c_dim = sum(s.module.ambient for s in self.c_ends)
        d_a = Mat.zero(b.domain, b.ambient, a_dim) if d_a is None else d_a
        d_b = Mat.zero(b.domain, c_dim, b.ambient) if d_b is None else d_b
        if d_a.rows != b.ambient or d_a.cols != a_dim:
            raise ValueError("d_a has the wrong shape")
        if d_b.rows != c_dim or d_b.cols != b.ambient:
            raise ValueError("d_b has the wrong shape")
        self.d_a = d_a
        self.d_b = d_b
        comp = d_b @ d_a
        row = 0
        for summand in self.c_ends:
            module = summand.module
            block = comp.take_rows(range(row, row + module.ambient))
            row += module.ambient
            if summand.invert is None:
                ok = module.contains(block)
            else:
                ok = sub_contains(module, torsion_gens(module, summand.invert), block)
            if not ok:
                raise ValueError("middle-finite complex has nonzero composite")

    def _tensored(self, n):
        localized = any(s.invert is not None for s in self.a_ends + self.c_ends)
        if localized and not n.is_torsion():
            raise DomainViolation("localized ends require a torsion argument")
        b_n = self.middle.tensor(n)
        a_n = _tensor_ends(self.a_ends, n)
        c_n = _tensor_ends(self.c_ends, n)
        ident = Mat.identity(n.domain, n.ambient)
        try:
            f = Morphism(a_n, b_n, self.d_a.kron(ident))
            h = Morphism(b_n, c_n, self.d_b.kron(ident))
        except NotWellDefined as exc:
            raise DomainViolation(f"maps do not descend to localizations: {exc}") from exc
        return f, h

    def _homology(self, n):
        f, h = self._tensored(n)
        return homology(f.mat, h)

    def __call__(self, n):
        return self._homology(n)[0]

    def map(self, g):
        # ``id_B (x) g`` on the middle, carried between the two kernels.
        (fa, gens_a), (fb, gens_b) = self._homology(g.source), self._homology(g.target)
        mid = Mat.identity(g.mat.domain, self.middle.ambient).kron(g.mat) @ gens_a
        return _carried(fa, fb, gens_b, mid)

    def __repr__(self):
        return (f"H(MiddleFinite({len(self.a_ends)} -> {self.middle!r} -> "
                f"{len(self.c_ends)}) (x) -)")


class ComplexHomology(MiddleFiniteFunctor):
    """``N -> H_i(P (x) N)`` for a complex ``P2 -> P1 -> P0`` with zero composite.

    ``d2`` must end in the presentation of ``P1`` that ``d1`` starts from.
    It is the middle-finite functor of ``P_(i+1) -> P_i -> P_(i-1)`` with
    plain ends; ``H_0`` has no ``c`` end and ``H_2`` no ``a`` end.
    """

    def __init__(self, d2, d1, index):
        if index not in (0, 1, 2):
            raise ValueError("homology index must be 0, 1 or 2")
        if d2.target.relations != d1.source.relations:
            raise ValueError("complex maps do not meet in one middle term")
        if not d1.compose(d2).is_zero():
            raise ValueError("complex has nonzero composite")
        p2, p1, p0 = d2.source, d1.source, d1.target
        a_ends, b, c_ends, d_a, d_b = (([p1], p0, [], d1.mat, None),
                                       ([p2], p1, [p0], d2.mat, d1.mat),
                                       ([], p2, [p1], None, d2.mat))[index]
        super().__init__(map(EndSummand, a_ends), b, map(EndSummand, c_ends), d_a, d_b)
        self.index = index

    def __repr__(self):
        return f"H_{self.index}(P (x) -)"


def gamma_as_middle_finite(ideal):
    """``Gamma_(g)`` as homology of ``0 -> R -> R[1/g]``."""
    D = ideal.domain
    r = FpModule.free(D, 1)
    return MiddleFiniteFunctor([], r, [EndSummand(r, ideal.gen)], None, Mat.identity(D, 1))


class ExponentSet:
    """A subset of the positive integers: finite members plus progressions a + bN."""

    __slots__ = ("members", "progressions")

    def __init__(self, members=(), progressions=()):
        members = frozenset(int_in_range(e, 1, what="members") for e in members)
        progs = [(int_in_range(a, 1, what="progression start"),
                  int_in_range(b, 1, what="progression step")) for a, b in progressions]
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "progressions", tuple(progs))

    def __setattr__(self, name, value):
        raise AttributeError("ExponentSet is immutable")

    def __contains__(self, e):
        if e in self.members:
            return True
        return any(e >= a and (e - a) % b == 0 for a, b in self.progressions)

    def to_json(self):
        doc = {}
        if self.members:
            doc["members"] = sorted(self.members)
        if self.progressions:
            doc["progressions"] = [list(p) for p in self.progressions]
        return doc

    def __repr__(self):
        parts = [str(e) for e in sorted(self.members)]
        parts += [f"{a}+{b}N" for a, b in self.progressions]
        return "{" + ", ".join(parts) + "}"


EMPTY_EXPONENTS = ExponentSet()


class SkeletonFormError(DomainViolation):
    """A module is not torsion, so it has no skeleton of prime-power summands."""


class OscillatingFunctor(Functor):
    """Per-prime exponent rules on the skeleton of finite torsion modules.

    ``F(R/p^e) = R/p`` when ``e`` lies in the exponent set of ``p`` and 0
    otherwise; on morphisms only the blocks between summands with the same
    prime and same exponent survive, reduced mod p.  Value and map read the
    kept prime powers off the invariant factors, sorted by prime then
    exponent, without building the skeleton: the map's block entries are
    those of ``g`` on the invariant-factor coordinates, reduced mod p, since
    the skeleton's CRT embedding of ``R/p^e`` into ``R/d`` is 1 mod ``p^e``.
    """

    def __init__(self, domain, rules):
        self.domain = domain
        canon_rules = {}
        for p, exps in rules.items():
            if domain.is_zero(p):
                raise ValueError("0 is not prime")
            c = domain.canon(p)[0]
            fac = domain.factor(c)
            if len(fac) != 1 or fac[0][1] != 1:
                raise ValueError(f"{domain.elem_str(p)} is not prime")
            if c in canon_rules:
                raise ValueError(f"{domain.elem_str(p)} repeats the prime "
                                 f"{domain.elem_str(c)}")
            canon_rules[c] = exps
        self.rules = canon_rules

    def exponents_of(self, p):
        return self.rules.get(p, EMPTY_EXPONENTS)

    def _kept(self, n):
        """``(p, e, factor index)`` per prime power ``p^e`` of ``n`` whose
        exponent lies in the set of ``p``, in skeleton order."""
        if not n.is_torsion():
            raise SkeletonFormError("skeleton is defined for torsion modules only")
        D = self.domain
        kept = [(p, e, idx) for idx, d in enumerate(n.factors) for p, e in D.factor(d)
                if e in self.exponents_of(p)]
        kept.sort(key=lambda t: (D.prime_key(t[0]), t[1], t[2]))
        return kept

    def __call__(self, n):
        return _diag_module(self.domain, [p for p, _, _ in self._kept(n)])

    def map(self, g):
        D = self.domain
        ks, kt = self._kept(g.source), self._kept(g.target)
        tg = (g.target._to_dec @ g.mat @ g.source._from_dec).data
        out = [[D.divmod(tg[j][i], p)[1] if (p, e) == (q, f) else D.zero for p, e, i in ks]
               for q, f, j in kt]
        return Morphism(_diag_module(D, [p for p, _, _ in ks]),
                        _diag_module(D, [q for q, _, _ in kt]), Mat(D, out, len(kt), len(ks)))

    def __repr__(self):
        inner = ", ".join(f"{self.domain.elem_str(p)}: {s!r}" for p, s in self.rules.items())
        return "Osc{" + inner + "}"

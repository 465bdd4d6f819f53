"""
The functor zoo
===============

Every functor here is evaluable on objects and morphisms: coherent functors
presented by a module map, derived functors through free resolutions,
torsion functors, homology of localized middle-finite complexes, and the
skeleton-level exponent-rule functor with its block morphism rule.
"""

import random

from stab import ZZ, Mat, FpModule, Ideal, Morphism, ass
from stab.functors import (CoherentFunctor, ext_functor, tor_functor,
                           GammaFunctor, gamma_as_middle_finite,
                           OscillatingFunctor, ExponentSet)
from stab.laws import check_functor_laws

R = FpModule.free(ZZ, 1)
Z2 = FpModule.cyclic(ZZ, 2)

# A coherent functor presented by f: R --2--> R is N |-> N/2N.
F = CoherentFunctor(Morphism(R, R, Mat(ZZ, [[2]])))
print("coker(h_R -> h_R) at Z/8:", F(FpModule.cyclic(ZZ, 8)).decompose())

# Ext^1(Z/2, -) and Tor_1(Z/2, -) give Z/2 on every Z/2^n.
for n in (1, 2, 3):
    e = ext_functor(Z2, 1)(FpModule.cyclic(ZZ, 2**n))
    t = tor_functor(Z2, 1)(FpModule.cyclic(ZZ, 2**n))
    print(f"Ext1, Tor1 at Z/{2**n}:", e.decompose(), t.decompose())

# The 2-power-torsion functor agrees with the homology of 0 -> R -> R[1/2].
mf = gamma_as_middle_finite(Ideal(ZZ, 2))
gf = GammaFunctor(Ideal(ZZ, 2))
n = FpModule.cyclic(ZZ, 12)
print("middle-finite vs direct torsion part:",
      mf(n).decompose(), gf(n).decompose())

# A torsion module's skeleton: its prime-power summands, sorted by prime
# then exponent, read off the invariant factors.
m = FpModule.cyclic(ZZ, 12).direct_sum(Z2)
pairs = sorted((p, e) for d in m.factors for p, e in ZZ.factor(d))
print("skeleton of Z/12 (+) Z/2:", [ZZ.elem_str(ZZ.pow(p, e)) for p, e in pairs])

# Exponent rules per prime; here: keep even 2-exponents.
osc = OscillatingFunctor(ZZ, {2: ExponentSet(progressions=[(2, 2)])})
for k in (1, 2, 3, 4):
    print(f"osc at Z/2^{k}:", ass(osc(FpModule.cyclic(ZZ, 2**k))))

# On morphisms only diagonal blocks with matching exponent survive, mod p;
# composition survives because cross terms pick up factors of p.
failures = check_functor_laws(osc, ZZ, random.Random(0), trials=30,
                              torsion_only=True, module_pool=[2, 4, 8])
print("functor laws on 30 random composable pairs:",
      "all hold" if not failures else failures)

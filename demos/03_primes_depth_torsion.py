"""
Associated primes, annihilators, depth, and torsion parts
=========================================================

Over a principal ideal backend the associated primes of a module are the
zero ideal (iff there is free rank) plus the primes dividing its invariant
factors, and depth only takes the values 0, 1, and infinity.
"""

from stab import ZZ, FpModule, Ideal, ass, ann, depth, gamma, tau, CmcSet, DEPTH_INF
from stab.functors import ModGamma, ModTau

R = FpModule.free(ZZ, 1)
M = R.direct_sum(FpModule.cyclic(ZZ, 12))

print("Ass(Z (+) Z/12):", ass(M))                  # {(0), (2), (3)}
print("Ann(Z/12 (+) Z/2):",
      ann(FpModule.cyclic(ZZ, 12).direct_sum(FpModule.cyclic(ZZ, 2))))

# Depth: infinity when J exhausts the module, zero on a zerodivisor.
print("depth (3) on Z/2:", depth(Ideal(ZZ, 3), FpModule.cyclic(ZZ, 2)) == DEPTH_INF)
print("depth (6) on Z (+) Z/2:", depth(Ideal(ZZ, 6), R.direct_sum(FpModule.cyclic(ZZ, 2))))
print("depth (2) on Z:", depth(Ideal(ZZ, 2), R))

# The I-power-torsion part, a submodule with its inclusion, and the quotient
# by it split Ass along V(I).
part, include = gamma(Ideal(ZZ, 2), M)
quotient = ModGamma(Ideal(ZZ, 2))(M)
print("Gamma_(2):", (part.rank, list(part.factors)),
      "  quotient:", (quotient.rank, list(quotient.factors)))
print("Ass of part:", ass(part), "  Ass of quotient:", ass(quotient))
print("the quotient kills the included part:", quotient.contains(include.mat))

# Sets that admit common multiples drive the torsion functor tau_S.
s = CmcSet.explicit(ZZ, [2, 4])
print("{2,4} cmc:", s.is_cmc(), " cogenerator:", s.cogenerator())
print("{4,6} cmc:", CmcSet.explicit(ZZ, [4, 6]).is_cmc())

# tau for the multiplicative closure of {2} is 2-power torsion.
t, _ = tau(CmcSet.closure(ZZ, [2]), FpModule.cyclic(ZZ, 12))
print("tau_closure{2} of Z/12:", (t.rank, list(t.factors)))

# The quotient formula can fail for sets that are merely cmc: with S = {2}
# and M = Z/4, the prime (2) meets S yet survives in M/tau.
t2 = ModTau(CmcSet.explicit(ZZ, [2]))(FpModule.cyclic(ZZ, 4))
print("Ass(M/tau) for S={2}, M=Z/4:", ass(t2))

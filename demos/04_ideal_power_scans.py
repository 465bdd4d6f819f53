"""
Scanning module invariants along ideal powers
=============================================

Families like M/I^n M are pushed through a functor while associated primes
and depth are recorded; the report states whether the sequence settled within
the horizon, and at which index.  An Artin-Rees probe finds the least shift d
with beta(M) * I^n N' = I^(n-d)(beta(M) * I^d N') across the window.
"""

from stab import ZZ, Mat, FpModule, Ideal, Morphism
from stab.functors import tor_functor, OscillatingFunctor, ExponentSet
from stab.scan import QuotientPowers, Layers, scan_rows, artin_rees_probe

R = FpModule.free(ZZ, 1)
I = Ideal(ZZ, 2)
M = R.direct_sum(FpModule.cyclic(ZZ, 8))

# Ass(M/2^n M) settles immediately.  The same scan records the depth of (2),
# which is 0 throughout (2 is a zerodivisor).
result = scan_rows(QuotientPowers(M, I), None, Ideal(ZZ, 2), horizon=30, window=10)
report = result.ass_report
print("quotient powers:", report.status, "from n0 =", report.n0)
dep = result.depth_report
print("depth sequence:", dep.status, [row.depth_value for row in result.rows[:4]], "...")

# Layers 2^(n-1) M / 2^n M stabilize as well.
print("layers:", scan_rows(Layers(M, I), horizon=30, window=10).ass_report.status)

# A derived functor in the middle: Tor_1(Z/4, M/2^n M).
report = scan_rows(QuotientPowers(R, I), tor_functor(FpModule.cyclic(ZZ, 4), 1),
                   horizon=30, window=10).ass_report
print("tor1 scan:", report.status, "n0 =", report.n0)

# An exponent-rule functor that refuses to settle: nonzero exactly at even n.
osc = OscillatingFunctor(ZZ, {2: ExponentSet(progressions=[(2, 2)])})
result = scan_rows(QuotientPowers(R, I), osc, horizon=40, window=10)
print("oscillating scan:", result.ass_report.status)
print("first values:", [row.ass_set.to_json() for row in result.rows[:6]])

# The Artin-Rees probe on beta = (*4): R -> R, N' = R, I = (2) returns d = 2:
# 4Z * 2^n Z = 2^max(2, n) Z needs exactly a shift of two.
beta = Morphism(R, R, Mat(ZZ, [[4]]))
print("Artin-Rees d:", artin_rees_probe(beta, Mat(ZZ, [[1]]), I, horizon=10))

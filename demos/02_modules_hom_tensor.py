"""
Finitely presented modules and their constructions
==================================================

A module is R^k modulo the column span of a relation matrix.  The invariant
factor decomposition is computed once, by Smith reduction, and drives
isomorphism testing, tensor products and Hom modules.  Kernels and images are
submodules spanned by matrix columns, and cokernels are quotients.
"""

from stab import ZZ, Mat, FpModule, Morphism, Ideal
from stab.modules import HomSpace, loc_tensor
from stab.scan import Layers


def iso_type(m):
    """(free rank, invariant factors): modules agreeing here are isomorphic."""
    return m.rank, list(m.factors)


# coker of a relation matrix: Z^2 / <(2,6), (4,8)> = Z/2 (+) Z/4.
M = FpModule.from_relations(ZZ, [[2, 4], [6, 8]])
print("decomposition:", iso_type(M))

R = FpModule.free(ZZ, 1)
Z4, Z6 = FpModule.cyclic(ZZ, 4), FpModule.cyclic(ZZ, 6)

# Tensor products follow the gcd rule on cyclic pieces.
print("Z/4 (x) Z/6:", iso_type(Z4.tensor(Z6)))         # Z/2
print("R (x) M iso to M:", iso_type(R.tensor(M)) == iso_type(M))

# Hom(Z/6, Z/4) = Z/2, realized by an actual morphism (multiplication by 2).
H = HomSpace(Z6, Z4)
print("Hom(Z/6, Z/4):", iso_type(H.module))
gen = H.realize([1])
print("its generator sends 1 to", gen.mat.data[0][0], "in Z/4")

# Precomposition: Hom(R, Z/4) --(.2)--> Hom(R, Z/4) is multiplication by 2.
doubling = Morphism(R, R, Mat(ZZ, [[2]]))
H = HomSpace(R, Z4)
induced = Morphism(H.module, H.module, H.induced(H, f=doubling))
print("induced map is *2:",
      induced.equals(Morphism(H.module, H.module, Mat.scalar(ZZ, H.module.ambient, 2))))

# The kernel of a morphism is the submodule spanned by the preimage of the
# target's relations, and its image the submodule spanned by its matrix.
f = Morphism(Z4, Z4, Mat.scalar(ZZ, 1, 2))
kernel, include = Z4.submodule(f.mat.preimage(Z4.relations))
image, _ = Z4.submodule(f.mat)
print("ker(2 on Z/4):", iso_type(kernel), " im:", iso_type(image))

# Ideal-power subquotients: (4Z + I^3 Z) / I^3 (2Z) for I = (2) is Z/4.
I = Ideal(ZZ, 2)
sq = R.subquotient(Mat(ZZ, [[4]]), Mat(ZZ, [[1]]), Mat(ZZ, [[2]]), I, 3)
print("(4Z + 8Z)/16Z:", iso_type(sq))

# M/I^n M and the layers I^(n-1) M / I^n M.
big = R.direct_sum(FpModule.cyclic(ZZ, 8))
print("M/I^5 M for M = Z (+) Z/8:", iso_type(big.power_quotient(I, 5)))
print("layer at n=3 for M = Z:", iso_type(Layers(R, I).generate(3)))

# Inverting an element kills the matching primary part of a torsion module.
print("R[1/2] (x) Z/12:", iso_type(loc_tensor(R, 2, FpModule.cyclic(ZZ, 12))))

"""
Exact matrix normal forms over Z and GF(p)[x]
=============================================

Smith and Hermite forms with their transformation matrices, exact linear
solving, preimages and kernels (syzygies).  Everything is arbitrary precision; nothing
is ever rounded.
"""

from stab import ZZ, Mat, poly_ring

# A 2x2 integer matrix and its Smith normal form U @ A @ V == D.
A = Mat(ZZ, [[2, 4], [6, 8]])
D, U, V = A.snf()
print("A:", A.data)
print("diagonal of D:", D.diagonal())          # [2, 4]
print("U @ A @ V == D:", (U @ A @ V) == D)

# The transforms are unimodular: exact inverses exist over the integers,
# solving U X = I.
print("U^-1 exists:", U.solve(Mat.identity(ZZ, U.rows)) is not None)

# Column Hermite form: A @ U == H, canonical for the column span.
H, U2 = Mat(ZZ, [[12, 6]]).hnf()
print("hnf of [[12, 6]]:", H.data)             # ((6, 0),)

# Exact solving, one column per right-hand side: 2x = 4 has the solution 2,
# while 2x = 3 has none over Z, so a system holding both columns has none.
two = Mat(ZZ, [[2]])
print("solve 2x=4:", two.solve(Mat(ZZ, [[4]])).col(0))     # [2]
print("solve 2x=3:", two.solve(Mat(ZZ, [[3]])))            # None
print("solve 2x=[4, 3]:", two.solve(Mat(ZZ, [[4, 3]])))    # None

# Preimages: the x with 2x in 6Z are generated by 3.
P = two.preimage(Mat(ZZ, [[6]]))
print("preimage of 6Z under 2:", P.col(0))                # [3]

# Kernels: all integer solutions of 2x + 4y = 0, the preimage of zero.
K = Mat(ZZ, [[2, 4]]).preimage(Mat.zero(ZZ, 1, 0))
print("kernel generators of [[2, 4]]:", [K.col(j) for j in range(K.cols)])

# The same machinery runs over GF(5)[x]; elements are coefficient tuples
# low-to-high, so (2, 1) is x + 2.
F5 = poly_ring(5)
x = (0, 1)
B = Mat(F5, [[x, F5.one], [F5.zero, x]])
D5, _, _ = B.snf()
print("SNF diagonal over GF(5)[x]:", [F5.elem_str(d) for d in D5.diagonal()])

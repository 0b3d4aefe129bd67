"""Walk through the bracket laws and coordinate changes on extension tensors.

An extension bracket on n-tuples is encoded by a 3-tensor W; it is a Lie
bracket exactly when W is symmetric in its upper indices and the slice
matrices pairwise commute.  This script validates the two reduced-MHD
tensors, breaks each law on purpose, and shows a coordinate change at work.
"""

from liepoisson import crmhd, low_beta_rmhd, validate, apply, BasisChange
from liepoisson.extension import CommutationViolation, SymmetryViolation
from liepoisson.linalg import ExactMatrix
from liepoisson.scalars import I, gr

print("== low-beta reduced MHD ==")
t = low_beta_rmhd()
for nu in range(t.n):
    print(f"W^({nu}) =")
    print(t.slice_upper(nu))
print("valid:", validate(t.w, semidirect=True) == t)

print()
print("== compressible reduced MHD, beta = 5/2 ==")
t = crmhd(gr(5) / gr(2))
print("slice matrices commute and the tensor is upper-symmetric: certified")
print("W^(1) =")
print(t.slice_upper(1))

print()
print("== breaking the symmetry law ==")
w = [[[t.w[a][b][c] for c in range(4)] for b in range(4)] for a in range(4)]
w[3][2][1] = gr(1)          # leaves the (3,1,2) partner at -beta
try:
    validate(w)
except SymmetryViolation as err:
    print("rejected:", err)

print()
print("== breaking the commutation law ==")
w = [[[gr(0)] * 3 for _ in range(3)] for _ in range(3)]
w[1][0][0] = gr(1)          # W_2^{11} = 1
w[2][1][1] = gr(1)          # W_3^{22} = 1: symmetric, but W^(0) and W^(1) do not commute
try:
    validate(w)
except CommutationViolation as err:
    print("rejected:", err, "at the pair", err.pair)

print()
print("== the complex tail map ==")
# diag(1,1) and the antidiagonal are congruent over Q(i): the map doubles
# the tail, so the textbook 1/sqrt(2) becomes the factor 2 on the last slot
from liepoisson.extension import from_lower_slices

t3 = from_lower_slices([None, None, ExactMatrix.diagonal([1, 1, 0])], 3)
m = ExactMatrix.from_rows([[1, 1, 0], [I, -I, 0], [0, 0, 2]])
out = apply(t3, BasisChange(m))
print("diag(1,1) tail becomes:")
print(out.slice_lower(2))

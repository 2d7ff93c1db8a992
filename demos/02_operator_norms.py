"""Multilinear operator norms with certified witnesses.

The estimator alternates exact one-slot maximizations; the bracket's
lower end is always attained by the reported witness tuple, the upper end
combines a floating-point coefficient bound, rounded outward, with a
small heuristic slack.
"""

import numpy as np

from seqclass import (
    INF,
    MultiOp,
    Space,
    Vector,
    diag_operator,
    evaluate,
    finite_type,
    op_norm,
    vector_norm,
)
from seqclass.multiop import holder_coefficient_bound

print("Coordinatewise product on l_2^4 x l_2^4 -> l_1^4:")
D = diag_operator(2, 4, 2)
est = op_norm(D, seed=0)
print(f"  bracket [{est.bracket.lower:.9f}, {est.bracket.upper:.9f}]")
print("  Cauchy-Schwarz forces <= 1; the witness recovers it exactly:")
for w in est.witness:
    print(f"    witness {np.round(w.coords, 6)}  (norm {vector_norm(w):.6f})")
print(f"    evaluation norm = {vector_norm(evaluate(D, est.witness)):.9f}")

print()
print("Rank-one operators factor: norm = ||phi_1|| ||phi_2|| ||b||.")
rng = np.random.default_rng(5)
s1, s2, out = Space(3, 1), Space(2, INF), Space(2, 2)
phi1 = Vector(s1.dual, rng.standard_normal(3))
phi2 = Vector(s2.dual, rng.standard_normal(2))
b = Vector(out, rng.standard_normal(2))
A = finite_type([phi1, phi2], b)
expected = vector_norm(phi1) * vector_norm(phi2) * vector_norm(b)
est = op_norm(A, seed=1)
print(f"  product of factor norms : {expected:.9f}")
print(f"  estimated bracket       : [{est.bracket.lower:.9f}, {est.bracket.upper:.9f}]")
print(f"  float coefficient bound : {holder_coefficient_bound(A):.9f} (tight here)")

print()
print("A generic random trilinear operator (no closed form):")
domain = (Space(3, 2), Space(3, INF), Space(2, 1))
T = MultiOp(domain, Space(2, 2), rng.standard_normal((3, 3, 2, 2)))
est = op_norm(T, seed=2)
print(f"  bracket [{est.bracket.lower:.6f}, {est.bracket.upper:.6f}]"
      f"  (exact={est.bracket.exact})")
print(f"  coefficient bound {holder_coefficient_bound(T):.6f} is valid but looser.")

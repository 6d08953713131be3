"""The growth constants and how the finite data approaches them.

The unrestricted counts grow like C * rho^(-n) * n^(-3/2): rho is the
smallest positive root of a fixed sextic, 1/rho ~ 1.9634 is the growth
factor, and C ~ 1.0219 is the leading amplitude.  constants() recomputes
the whole chain from the polynomial at high precision, and
convergence_series() shows count(m, n) * rho^n * n^(3/2) flattening
toward C as n grows.
"""

import math

from blc import constants, convergence_series, sigma
from blc.asymptotics import DISCRIMINANT_LIMIT, SINGULARITY_POLY, bound_discriminant, real_roots

report = constants()
print("rho     =", report.rho)
print("1/rho   =", report.growth)
print("Q(rho)  =", report.q_at_rho)
print("c_tilde =", report.c_tilde)
print("C       =", report.c)
print()
print("note on c_tilde:")
print(" ", report.note)
print()

# The sextic behind rho, and its real roots on [-4, 2].
print("singularity polynomial coefficients (ascending):", SINGULARITY_POLY)
print("real roots:", [float(r) for r in report.real_roots])
print()

# Dividing out the known root at z = 1 leaves the quartic-limit
# discriminant whose root in (0, 1) is rho itself.
print("after removing the root at 1:", DISCRIMINANT_LIMIT)
print()

# The terms whose every index is at most m have their own
# singularities sigma_m, decreasing toward rho; already at m = 12 the
# first eight digits agree.  (Bounding only the free indices keeps rho.)
print("m    sigma_m")
for m in [0, 1, 2, 3, 4, 6, 8, 12]:
    print("%-3d  %.10f" % (m, sigma(m)))
print("rho  %.10f" % report.rho)
print()

# sigma_m is the in-(0,1] root of a one-term perturbation of the limit
# discriminant; the perturbation shrinks like z^(m+4).
p = bound_discriminant(6)
roots = real_roots(p, 0, 1)
print("bound_discriminant(6) roots in (0, 1]:", [round(r, 10) for r in roots])
print()

# Convergence of the scaled counts toward C, for closed terms and for
# the unrestricted class.
print("scaled counts count(m, n) * rho^n * n^(3/2):")
print("n      m=0           m=inf")
points = {
    (pt.m, pt.n): pt.value
    for pt in convergence_series([0, math.inf], 240)
}
for n in [30, 60, 120, 240]:
    print("%-5d  %.9f   %.9f" % (n, points[(0, n)], points[(math.inf, n)]))
print()
print("C    = %.9f" % report.c)

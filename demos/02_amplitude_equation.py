"""From the naive series to the amplitude (RG) equation and the limit cycle.

The resonant coefficients P_{+-1} drive an autonomous slow flow for the
renormalized amplitudes.  In polar coordinates Ar = R e^{i theta} the van
der Pol flow is phase-free, and d log R/dt = 0 yields the limit-cycle
radius as an exact rational series.
"""

from rgpert.perturbation import expand
from rgpert.registry import get_example
from rgpert.rg import derive_rg, to_polar, limit_cycle

Y = expand(get_example("vdp").potential(), 8)
system = derive_rg(Y)
print("cartesian amplitude equation:")
print("  dAr/dt =", system.rhs_A)
print()

polar = to_polar(system)
print("polar form (w stands for e^{i theta}):")
print("  d log R/dt =", polar.dlogR_dt)
print("  d theta/dt =", polar.dtheta_dt)
print("  theta-free:", polar.theta_free())
print()

R_c, dtheta_c = limit_cycle(polar)
print("limit cycle:")
print("  2*R_c          =", R_c * 2)
print("  (d theta/dt)_c =", dtheta_c)

# Evaluate the radius at a concrete eps to see how tiny the corrections
# to the classical amplitude 2 are.
eps = 0.3
value = 2 * sum(float(c.as_constant().re) * eps ** k
                for k, c in enumerate(R_c.coeffs))
print(f"\n2*R_c at eps={eps}: {value:.12f}")

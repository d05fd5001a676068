"""Amplitude equations for the remaining built-in oscillators.

Duffing (with g bound to 1) decays toward the origin and has no limit
cycle; Rayleigh behaves like van der Pol; the nonautonomous example mixes
R and theta so its radial equation cannot be closed on its own.
"""

from rgpert.errors import DegenerateRoot, ThetaDependent
from rgpert.perturbation import expand
from rgpert.registry import EXAMPLES
from rgpert.rg import derive_rg, to_polar, limit_cycle

RUNS = [("duffing", 5, {"g": 1}),
        ("rayleigh", 6, None),
        ("nonauto", 4, None)]

for name, order, bindings in RUNS:
    spec = EXAMPLES[name]
    print(f"== {name}: V = {spec.dsl}"
          + (f" with {bindings}" if bindings else ""))
    V = spec.potential()
    if bindings:
        V = V.bind(bindings)
    polar = to_polar(derive_rg(expand(V, order)))
    print("  d log R/dt =", polar.dlogR_dt)
    print("  d theta/dt =", polar.dtheta_dt)
    try:
        R_c, dtheta_c = limit_cycle(V, order)
        print("  limit cycle: 2*R_c =", R_c * 2)
    except DegenerateRoot as exc:
        print("  no limit cycle:", exc)
    except ThetaDependent as exc:
        print("  no phase-free cycle:", exc)
    print()

"""Walk through the naive perturbation series of the van der Pol oscillator.

The naive expansion of y'' + y = eps*(1 - y^2)*y' produces terms that grow
polynomially in t (secular terms), which is exactly the disease the
renormalized amplitudes cure in the next demo.
"""

from rgpert.potential import parse_potential
from rgpert.perturbation import expand

V = parse_potential("(1 - y^2)*y'")
Y = expand(V, 3)

print("harmonics present:", Y.harmonics())
print()

# The table rows are eps-orders, the columns harmonics e^{int}.
for k in range(Y.cap + 1):
    row = Y.row(k)          # {n: f[n,k]} over the nonzero cells
    for n in sorted(row):
        print(f"  f[{n},{k}] = {row[n]}")
    print()

# The resonant coefficient P_1 collects the t-growing terms of e^{it};
# at t = 0 it collapses to the bare amplitude A, which is the
# normalization that makes the renormalization-group step well defined.
p1 = Y.secular_coefficient(1)
print("P_1(eps, t, A, B) =", p1)
print("P_1(eps, 0, A, B) =", p1.map_coeffs(lambda c: c.subs({"t": 0})))

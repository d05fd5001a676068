"""Stability-band edges of the parametrically driven oscillator.

y'' + y + eps*(g + 2 cos t)*y = 0 with the detuning expanded as
g = g1 + g2*eps + ... has a linear amplitude equation; its square is a
scalar -omega^2, and solving omega^2 = 0 order by order forks into the
two boundaries a = 1 + eps*g of the resonance tongue.  The series edges
are then cross-checked against zeros of truncated tridiagonal
determinants.
"""

from rgpert.mathieu import (analyze, boundary_crosscheck, find_boundary_roots,
                            in_parameters)

omega2, branches = analyze(7)

print("omega^2 =", in_parameters(omega2))
print()
for b in branches:
    print(f"a{b.label} = {b.a_series_str()}")
print()

print("crosscheck against determinant zeros (N = 12):")
print(f"{'eps':>6} {'branch':>6} {'series':>14} {'determinant':>14} "
      f"{'deviation':>12}")
for row in boundary_crosscheck(branches, [0.05, 0.1, 0.2], N=12):
    print(f"{row.eps:>6} {row.branch:>6} {row.a_series:>14.10f} "
          f"{row.a_determinant:>14.10f} {row.deviation:>12.3e}")

# The truncation size N converges fast; compare a coarse and a fine cut.
for N in (4, 8, 12):
    root = find_boundary_roots([0.2], N, "+")[0]
    print(f"N={N:>2}: root of the + determinant at eps=0.2 -> {root:.10f}")

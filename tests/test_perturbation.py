from rgpert.algebra import EpsilonSeries, ParamPolynomial, P, gr, grq
from rgpert.perturbation import particular_solution
from rgpert.potential import HARMONIC

from oracles import q_split


A, B, t = P("A"), P("B"), P("t")
T_ZERO = {"t": gr(0)}
C = A * B
i = gr(0, 1)


def harmonic_table():
    """The naive van der Pol table through third order, columns n >= 1.

    Cells are transcriptions of the classical result; C abbreviates A*B.
    """
    return {
        (1, 0): A,
        (1, 1): A * t * grq(1, 2) * (1 - C),
        (3, 1): i * A ** 3 * grq(1, 8),
        (1, 2): A * t * grq(1, 16) * (-2 * i + 8 * i * C - 7 * i * C ** 2
                                      + 2 * t - 8 * C * t + 6 * C ** 2 * t),
        (3, 2): -i * A ** 3 * grq(1, 64) * (-2 * i - i * C
                                            - 12 * t + 12 * C * t),
        (5, 2): -(A ** 5) * grq(5, 192),
        (1, 3): -A * t * grq(1, 384) * (
            96 * C - 210 * C ** 2 + 111 * C ** 3
            + 24 * i * t - 216 * i * C * t + 444 * i * C ** 2 * t
            - 252 * i * C ** 3 * t
            - 8 * t ** 2 + 104 * C * t ** 2
            - 216 * C ** 2 * t ** 2 + 120 * C ** 3 * t ** 2),
        (3, 3): A ** 3 * grq(1, 512) * (
            4 * i - 42 * i * C + 29 * i * C ** 2
            - 92 * C * t + 104 * C ** 2 * t
            + 72 * i * t ** 2 - 192 * i * C * t ** 2
            + 120 * i * C ** 2 * t ** 2),
        (5, 3): A ** 5 * grq(5, 4608) * (-14 * i - 3 * i * C
                                         - 60 * t + 60 * C * t),
        (7, 3): -7 * i * A ** 7 * grq(1, 1152),
    }


def entry(Y, n, k):
    """f_{n,k}, zero where the row of eps-order k has no harmonic n."""
    return Y.row(k).get(n, ParamPolynomial.zero())


def test_rows_are_the_cells_of_the_table(vdp_Y5, nonauto_Y4):
    for Y in (vdp_Y5, nonauto_Y4):
        for k, c in enumerate(Y.table.coeffs):
            row = Y.row(k)
            assert set(row) == c.exponents(HARMONIC)
            for n, f in row.items():
                assert f and f == c.coefficient(HARMONIC, n), (n, k)


def test_table_positive_harmonics(vdp_Y5):
    expected = harmonic_table()
    for (n, k), cell in expected.items():
        assert entry(vdp_Y5, n, k) == cell, (n, k)
    # all remaining positive-harmonic cells through k=3 vanish
    for k in range(4):
        for n in range(0, 9):
            if (n, k) not in expected:
                assert entry(vdp_Y5, n, k).is_zero(), (n, k)


def test_negative_harmonics_by_symmetry(vdp_Y5):
    # the potential is real with real coefficients, so the negative
    # harmonics follow by conjugation combined with A <-> B
    swap = {"A": "B", "B": "A"}
    for (n, k) in harmonic_table():
        mirrored = entry(vdp_Y5, n, k).conjugated().rename(swap)
        assert entry(vdp_Y5, -n, k) == mirrored


def test_fifth_harmonic_series(vdp_Y5):
    p5 = vdp_Y5.secular_coefficient(5)
    assert p5.coeffs[0].is_zero() and p5.coeffs[1].is_zero()
    assert p5.coeffs[2] == -(A ** 5) * grq(5, 192)
    assert p5.coeffs[3] == A ** 5 * grq(5, 4608) * (
        -14 * i - 3 * i * C - 60 * t + 60 * C * t)


def test_even_harmonics_vanish(vdp_Y5):
    assert all(n % 2 == 1 for n in vdp_Y5.harmonics())


def test_resonant_normalization(vdp_Y5, nonauto_Y4):
    # f_{+-1,k}(t=0) = 0 for all k >= 1
    for Y in (vdp_Y5, nonauto_Y4):
        for n in (1, -1):
            for k in range(1, Y.cap + 1):
                f = entry(Y, n, k)
                assert f.subs({"t": gr(0)}).is_zero(), (n, k)


def test_resonant_identity_at_t0(vdp_Y5):
    # P_{+-1}(eps, 0, A, B) = (A, B) exactly
    p1 = vdp_Y5.secular_coefficient(1).map_coeffs(lambda c: c.subs(T_ZERO))
    assert p1 == EpsilonSeries.from_poly(A, vdp_Y5.cap)
    pm1 = vdp_Y5.secular_coefficient(-1).map_coeffs(lambda c: c.subs(T_ZERO))
    assert pm1 == EpsilonSeries.from_poly(B, vdp_Y5.cap)


def test_eps_zero_limit(vdp_Y5):
    # P_n(0, t, A, B) = A delta_{n,1} + B delta_{n,-1}
    for n in vdp_Y5.harmonics():
        lead = vdp_Y5.secular_coefficient(n).coeffs[0]
        if n == 1:
            assert lead == A
        elif n == -1:
            assert lead == B
        else:
            assert lead.is_zero()


def test_support_growth(vdp_Y5):
    # harmonic n first appears no earlier than order (|n|-1)/M
    M = vdp_Y5.potential.support_growth_rate()
    for n in vdp_Y5.harmonics():
        v = vdp_Y5.secular_coefficient(n).valuation()
        assert v is not None and abs(n) <= 1 + v * M


def test_q_split(vdp_Y5):
    q1, qm1 = q_split(vdp_Y5)
    assert q1.cap == vdp_Y5.cap - 1
    assert q1.coeffs[0] == entry(vdp_Y5, 1, 1)
    assert qm1.coeffs[0] == entry(vdp_Y5, -1, 1)
    # Q_{+-1}(eps, 0, A, B) = 0
    assert q1.map_coeffs(lambda c: c.subs(T_ZERO)).is_zero()
    assert qm1.map_coeffs(lambda c: c.subs(T_ZERO)).is_zero()


def test_particular_solution_nonresonant():
    # p'' + 4ip - 3p = t  for n = 2: check by direct substitution
    q = t
    p = particular_solution(2, q)
    res = p.diff("t").diff("t") + gr(0, 4) * p.diff("t") + gr(-3) * p - q
    assert res.is_zero()


def test_particular_solution_resonant():
    # n = 1: p'' + 2ip' = A with zero constant term
    q = A
    p = particular_solution(1, q)
    res = p.diff("t").diff("t") + gr(0, 2) * p.diff("t") - q
    assert res.is_zero()
    assert p.subs({"t": gr(0)}).is_zero()

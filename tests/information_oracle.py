"""Test oracle: the continuous field information I(t) by 40-digit quadrature.

I(t) = 4 M eta gamma^2 J^2 int_0^t [G1(s) / (1 + lam s)]^2 ds, with
lam = 2 eta M J and G1(s) = int_0^s (1 + lam u) e^{-M u / 2} du, the
integral that ``riccati_integrate`` evaluates in closed form, so that
1/v22(t) = 1/prior + I(t).  mpmath integrates it interval by interval
between the requested times and sums the pieces.
"""

import numpy as np


def information(p, ts) -> np.ndarray:
    """I(t) at the strictly increasing times ``ts`` > 0, rounded to float."""
    import mpmath

    with mpmath.workdps(40):
        m, eta, j, g = (mpmath.mpf(v) for v in (p.meas_strength, p.efficiency, p.j_total,
                                                 p.gamma))
        lam = 2 * eta * m * j

        def integrand(s):
            e = mpmath.exp(-m * s / 2)
            g1 = (2 / m) * (1 - e) + lam * (4 / m**2) * (1 - (1 + m * s / 2) * e)
            return (g1 / (1 + lam * s)) ** 2

        edges = [mpmath.mpf(0)] + [mpmath.mpf(float(t)) for t in ts]
        total, out = mpmath.mpf(0), []
        for a, b in zip(edges[:-1], edges[1:]):
            total += mpmath.quad(integrand, [a, b])
            out.append(float(4 * m * eta * g**2 * j**2 * total))
    return np.array(out)

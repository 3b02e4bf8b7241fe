"""Independent numerical cross-checks used only by the tests.

Nothing here imports from the package internals beyond public constants;
each oracle re-derives its answer from the defining equations so that
agreement with the library is a genuine two-route check. The mpmath
oracles import mpmath when called, so the other oracles work without it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special
from scipy.linalg import eigh_tridiagonal


def bouncer_levels_fd(n_levels: int, constants, n_grid: int = 10_000, s_max: float = 40.0):
    """Lowest bouncer energies (J) from a finite-difference discretization.

    Discretizes -psi'' + s psi = e psi (heights in units of the
    gravitational length, energies in units of the gravitational energy)
    on a uniform grid with Dirichlet ends and a three-point second
    derivative, then solves the symmetric tridiagonal eigenproblem.
    """
    alpha = 2.0 * constants.m**2 * constants.g / constants.hbar**2
    l_g = alpha ** (-1.0 / 3.0)
    e_g = constants.m * constants.g * l_g
    h = s_max / (n_grid + 1)
    s = h * np.arange(1, n_grid + 1)
    diag = 2.0 / h**2 + s
    offdiag = np.full(n_grid - 1, -1.0 / h**2)
    vals = eigh_tridiagonal(
        diag, offdiag, eigvals_only=True, select="i", select_range=(0, n_levels - 1)
    )
    return vals * e_g


AIRY_LEVELS = 1000  # zeros the semi-discrete sum takes from scipy
# at tau > 0 the levels past AIRY_LEVELS may hold at most this share of the sum
_LEVEL_TAIL_SHARE = 1e-10


def airy_level_number(mu: float, tau: float = 0.0) -> float:
    """Areal particle number summed over the discrete Airy levels.

    Energies are in units of e_g and the number in units of
    m e_g / (pi hbar^2), spin 2 included. Level n sits at x_n = |a_n| and
    carries an exact 2-D lateral continuum, which holds
    tau ln(1 + e^((mu - x_n)/tau)) particles, or (mu - x_n)_+ at tau = 0.
    The continuum density of states gives (2/(3 pi)) tau^(5/2) F_{3/2}(mu/tau)
    in the same units, (4/(15 pi)) mu^(5/2) at tau = 0.

    The zeros come from scipy's ai_zeros, not from the package. Only
    AIRY_LEVELS of them are summed, so a request that needs more raises
    ValueError instead of extrapolating: mu >= x_1000 always, and at
    tau > 0 a request where the levels past x_1000 (sqrt(x)/pi of them per
    unit x), which hold about tau^2 (sqrt(x_1000)/pi) e^(-(x_1000 - mu)/tau),
    would hold more than 1e-10 of the sum.
    """
    x = -special.ai_zeros(AIRY_LEVELS)[0]
    if not mu < x[-1]:
        raise ValueError(f"mu = {mu!r} e_g reaches past level {AIRY_LEVELS} at {x[-1]!r}")
    if tau == 0.0:
        return float(np.sum(np.maximum(mu - x, 0.0)))
    total = float(tau * np.sum(np.logaddexp(0.0, (mu - x) / tau)))
    tail = tau**2 * math.sqrt(x[-1]) / math.pi * math.exp(-(x[-1] - mu) / tau)
    if not tail <= _LEVEL_TAIL_SHARE * total:
        raise ValueError(
            f"mu = {mu!r} e_g at tau = {tau!r} leaves about {tail:.2e} past level "
            f"{AIRY_LEVELS}, over {_LEVEL_TAIL_SHARE:g} of the sum {total!r}"
        )
    return total


def _fermi_kernel(x: float) -> float:
    if x > 500.0:
        return math.exp(-x)
    return 1.0 / (math.exp(x) + 1.0)


def _quad(func, a, b):
    value, _ = integrate.quad(func, a, b, epsabs=1e-300, epsrel=1e-11, limit=400)
    return value


def fermi_dirac_quad(j: float, eta: float) -> float:
    """F_j(eta) for one eta by adaptive QUADPACK quadrature, split at max(eta, 0).

    Below the split the integrand is z^j / (e^(z - eta) + 1); above it the
    substitution u = exp(-(z - eta)) maps the unbounded part onto a finite
    interval. QUADPACK can flag roundoff at points where its own relative
    error estimate is ~1e-13, so only an estimate above 1e-11 is a failure.
    Meant for j >= 1/2: for j = -1/2 the endpoint singularity of the upper
    part defeats the extrapolation far in the Maxwell regime.
    """

    def part(func, a, b):
        value, abserr, _info, *message = integrate.quad(
            func, a, b, epsabs=0.0, epsrel=1e-12, limit=400, full_output=1
        )
        if not abserr <= 1e-11 * abs(value):
            reason = f": {message[0]}" if message else ""
            raise ArithmeticError(
                f"F_{j}({eta!r}) quadrature on [{a}, {b}] has relative error "
                f"estimate {abserr / abs(value):.1e}{reason}"
            )
        return value

    total = 0.0
    if eta > 0.0:
        total += part(lambda z: z**j * _fermi_kernel(z - eta), 0.0, eta)
    u_top = math.exp(min(eta, 0.0))
    total += part(lambda u: (eta - math.log(u)) ** j / (1.0 + u), 0.0, u_top)
    return total


def sommerfeld(j: float, eta: float) -> float:
    """Two-term degenerate expansion of F_j for eta > 0.

    F_j(eta) ~ eta**(j+1)/(j+1) + (pi**2/6) * j * eta**(j-1), i.e.
    2 eta^(1/2) - (pi^2/12) eta^(-3/2) for j = -1/2,
    (2/3) eta^(3/2) + (pi^2/12) eta^(-1/2) for j = 1/2,
    (2/5) eta^(5/2) + (pi^2/4) eta^(1/2) for j = 3/2,
    (2/7) eta^(7/2) + (5 pi^2/12) eta^(3/2) for j = 5/2.
    The remainder falls off like eta**-4 relative to the leading term.
    """
    return eta ** (j + 1.0) / (j + 1.0) + (math.pi**2 / 6.0) * j * eta ** (j - 1.0)


def nested_cross_term(eta: float) -> float:
    """Nested quadrature of the 2-D integral with kernel z^(1/2) * v."""
    v_span = lambda z: max(eta - z, 0.0) + 45.0
    inner = lambda z: _quad(lambda v: v * _fermi_kernel(z + v - eta), 0.0, v_span(z))
    return _quad(lambda z: math.sqrt(z) * inner(z), 0.0, max(eta, 0.0) + 45.0)


def nested_number_term(eta: float) -> float:
    """Nested quadrature of the 2-D integral with kernel z^(1/2)."""
    v_span = lambda z: max(eta - z, 0.0) + 45.0
    inner = lambda z: _quad(lambda v: _fermi_kernel(z + v - eta), 0.0, v_span(z))
    return _quad(lambda z: math.sqrt(z) * inner(z), 0.0, max(eta, 0.0) + 45.0)


def column_number(t: float, eps_F: float, constants, density_func) -> float:
    """Particles per m^2 of floor: the height integral of the density, by direct quadrature."""
    z_col = eps_F / (constants.m * constants.g)
    z_max = z_col * (1.5 + 50.0 * max(t, 0.1))
    integral, _ = integrate.quad(
        lambda z: density_func(t, z, eps_F, constants),
        0.0,
        z_max,
        epsabs=0.0,
        epsrel=1e-10,
        limit=400,
        points=[z_col],
    )
    return integral


def fermi_dirac_mp(j: float, eta, dps: int = 40):
    """F_j(eta) = -Gamma(j+1) Li_{j+1}(-e^eta) from mpmath's polylog at dps digits."""
    import mpmath as mp

    with mp.workdps(dps):
        j = mp.mpf(j)
        return mp.re(-mp.gamma(j + 1) * mp.polylog(j + 1, -mp.exp(eta)))


def eta_from_t_mp(t: float, s: float, dps: int = 40):
    """Root eta of (s+1) F_s(eta) = t^-(s+1), by Newton's method at dps digits.

    The derivative is (s+1) s F_{s-1}. Newton starts at the degenerate
    estimate eta = 1/t for t < 1 and at the Maxwell estimate
    -ln(Gamma(s+2) t^(s+1)) otherwise; from 1/t it does not converge at
    t = 1e3.
    """
    import mpmath as mp

    with mp.workdps(dps):
        t, s = mp.mpf(t), mp.mpf(s)
        target = t ** -(s + 1)
        eta = 1 / t if t < 1 else -mp.log(mp.gamma(s + 2) * t ** (s + 1))
        for _ in range(100):
            residual = (s + 1) * fermi_dirac_mp(s, eta, dps) - target
            step = residual / ((s + 1) * s * fermi_dirac_mp(s - 1, eta, dps))
            eta -= step
            if abs(step) <= mp.mpf(10) ** (5 - dps) * max(1, abs(eta)):
                return eta
    raise ArithmeticError(f"mpmath eta solve did not converge at t={float(t)!r}, s={float(s)!r}")

"""Negative zeros of the Airy function and complete Fermi-Dirac integrals.

Ai itself comes from the AMOS routines exposed through scipy.special.
Zeros are located by bracketing refinement seeded with the large-index
asymptotic formula, then polished with Newton steps.
"""

from __future__ import annotations

import math
from functools import lru_cache

from scipy import integrate, optimize, special

from .errors import DomainError, NumericalError

ZERO_INDEX_MAX = 1000

# complete Fermi-Dirac integrals are provided for these orders only
FD_ORDERS = (0.5, 1.5, 2.5)
FD_ETA_MAX = 1.0e4
# below this the integral is Maxwellian to far better than the 1e-10 target
_FD_SERIES_CUTOFF = -35.0
# largest QUADPACK relative error estimate accepted, a decade inside 1e-10
_QUAD_REL_ERR = 1.0e-11


def airy_zero_asymptotic(n: int) -> float:
    """Large-index approximation -(3*pi*(4n - 1)/8)**(2/3) to the n-th zero.

    Accurate to about 0.8% at n = 1 and improving monotonically with n.
    """
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"zero index must be a positive integer, got {n!r}")
    return -((3.0 * math.pi * (4.0 * n - 1.0) / 8.0) ** (2.0 / 3.0))


@lru_cache(maxsize=ZERO_INDEX_MAX + 1)
def airy_zero(n: int) -> float:
    """n-th negative zero of Ai for 1 <= n <= 1000.

    Seeded by :func:`airy_zero_asymptotic`, refined with derivative-free
    bracketing, then Newton-polished; |Ai| at the result is below 1e-13.
    Results are cached (pure and deterministic, so safe to share).
    """
    if not (isinstance(n, int) and 1 <= n <= ZERO_INDEX_MAX):
        raise DomainError(f"zero index must lie in 1..{ZERO_INDEX_MAX}, got {n!r}")
    seed = airy_zero_asymptotic(n)
    ai = lambda x: float(special.airy(x)[0])
    # zero spacing shrinks like pi/sqrt(|a|); keep the bracket well inside it
    width = min(0.1, 0.35 * math.pi / math.sqrt(-seed))
    lo, hi = seed - width, seed + width
    for _ in range(6):
        if ai(lo) * ai(hi) < 0.0:
            break
        width *= 1.6
        lo, hi = seed - width, seed + width
    else:
        raise NumericalError(f"could not bracket Airy zero {n}")
    root = optimize.brentq(ai, lo, hi, xtol=5e-14, rtol=8.9e-16)
    for _ in range(2):
        val, slope = special.airy(root)[:2]
        root -= float(val) / float(slope)
    return float(root)


def _check_order(j: float) -> float:
    j = float(j)
    if j not in FD_ORDERS:
        raise DomainError(f"Fermi-Dirac order must be one of {FD_ORDERS}, got {j!r}")
    return j


def _fermi_factor(x: float) -> float:
    # 1/(exp(x) + 1) without overflow
    if x > 500.0:
        return math.exp(-x)
    return 1.0 / (math.exp(x) + 1.0)


def _quad(func, a: float, b: float, j: float, eta: float) -> float:
    value, abserr, _info, *message = integrate.quad(
        func, a, b, epsabs=0.0, epsrel=1e-12, limit=400, full_output=1
    )
    # QUADPACK warns of roundoff even when its error estimate is ~1e-13, far
    # inside the 1e-10 target; only an estimate above _QUAD_REL_ERR is a failure
    if not abserr <= _QUAD_REL_ERR * abs(value):
        reason = f": {message[0]}" if message else ""
        raise NumericalError(
            f"F_{j}({eta!r}) quadrature on [{a}, {b}] has relative error "
            f"estimate {abserr / abs(value):.1e}{reason}"
        )
    return value


def fermi_dirac(j: float, eta: float) -> float:
    """Complete Fermi-Dirac integral F_j(eta) for j in {1/2, 3/2, 5/2}.

    F_j(eta) = integral of z**j / (exp(z - eta) + 1) over z >= 0, with
    relative error <= 1e-10 for |eta| <= 1e4. The domain is split at
    max(eta, 0); the unbounded part is mapped to a finite interval by the
    substitution u = exp(-(z - eta)). Far in the nondegenerate regime the
    alternating Maxwell series is used instead, where its truncation error
    is negligible at the same target.
    """
    j = _check_order(j)
    eta = float(eta)
    if not math.isfinite(eta) or abs(eta) > FD_ETA_MAX:
        raise DomainError(f"eta must be finite with |eta| <= {FD_ETA_MAX}, got {eta!r}")
    if eta <= _FD_SERIES_CUTOFF:
        return fermi_dirac_maxwell(j, eta)
    total = 0.0
    if eta > 0.0:
        total += _quad(lambda z: z**j * _fermi_factor(z - eta), 0.0, eta, j, eta)
    u_top = math.exp(min(eta, 0.0))
    total += _quad(lambda u: (eta - math.log(u)) ** j / (1.0 + u), 0.0, u_top, j, eta)
    return total


def fermi_dirac_maxwell(j: float, eta: float) -> float:
    """Nondegenerate (eta << 0) series Gamma(j+1) * sum_{k<=3} (-1)^(k+1) e^(k eta) / k^(j+1)."""
    j = _check_order(j)
    acc = 0.0
    for k in range(1, 4):
        acc += (-1.0) ** (k + 1) * math.exp(k * eta) / k ** (j + 1.0)
    return math.gamma(j + 1.0) * acc


def sommerfeld(j: float, eta: float) -> float:
    """Two-term degenerate expansion of F_j for eta > 0.

    F_j(eta) ~ eta**(j+1)/(j+1) + (pi**2/6) * j * eta**(j-1), i.e.
    (2/3) eta^(3/2) + (pi^2/12) eta^(-1/2) for j = 1/2,
    (2/5) eta^(5/2) + (pi^2/4) eta^(1/2) for j = 3/2,
    (2/7) eta^(7/2) + (5 pi^2/12) eta^(3/2) for j = 5/2.
    The remainder falls off like eta**-4 relative to the leading term.
    """
    j = _check_order(j)
    eta = float(eta)
    if not (math.isfinite(eta) and eta > 0.0):
        raise DomainError(f"the degenerate expansion needs eta > 0, got {eta!r}")
    return eta ** (j + 1.0) / (j + 1.0) + (math.pi**2 / 6.0) * j * eta ** (j - 1.0)

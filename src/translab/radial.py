"""Rotationally symmetric translators via ODE shooting.

Profiles are integrated in slope-angle variables, which keep both the
removable singularity at the axis (bowl) and the vertical tangent at a
catenoid neck regular:

    graph form (bowl):      du/dr = tan(psi),  dpsi/dr = -1 - (n-1) tan(psi)/r
    arclength form (neck):  dr/ds = cos(psi),  du/ds = sin(psi),
                            dpsi/ds = -cos(psi) - (n-1) sin(psi)/r

Both encode H = -cos(psi) for the downward translation convention, with
principal curvatures kappa_prof = dpsi/ds and kappa_rot = sin(psi)/r
(multiplicity n-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (NonMonotoneProfileError, StepTooLargeError,
                     UmbilicWindowError, WindowTooNarrowError)
from .grid import GridFunction, from_function


class RadialKind(Enum):
    BOWL = "bowl"
    CATENOID_UPPER = "catenoid-upper"
    CATENOID_LOWER = "catenoid-lower"


@dataclass
class RadialProfile:
    """Samples (r_k, u_k, psi_k) of a rotationally symmetric translator."""

    n: int
    kind: RadialKind
    lam: float | None
    r: np.ndarray
    u: np.ndarray
    psi: np.ndarray
    h: float

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.psi = np.asarray(self.psi, dtype=float)
        if not np.all(np.diff(self.r) > 0):
            raise ValueError("profile radii must be strictly increasing")

    def interp_slope(self, r):
        return np.interp(r, self.r, np.tan(self.psi))


# --- fixed-nominal-step RK4 with step-doubling error control ----------------

_STEP_TOL = 1e-10          # local error bound, relative to 1 + max |y|
_STEP_FLOOR_FACTOR = 2.0 ** -30
_MAX_STEPS = 50_000_000


def _integrate_rk4(rhs, t0, y0, h, stop, record):
    """Classic RK4 driven at nominal step h; halves the step where the
    step-doubling estimate exceeds _STEP_TOL, recovers afterwards.

    rhs(t, y) -> tuple of floats; stop(t, y) -> bool checked after each step.
    record(t, y) is called for every accepted state including the initial one.
    """
    def rk4(t, y, dt):
        k1 = rhs(t, y)
        y2 = tuple(yi + 0.5 * dt * ki for yi, ki in zip(y, k1))
        k2 = rhs(t + 0.5 * dt, y2)
        y3 = tuple(yi + 0.5 * dt * ki for yi, ki in zip(y, k2))
        k3 = rhs(t + 0.5 * dt, y3)
        y4 = tuple(yi + dt * ki for yi, ki in zip(y, k3))
        k4 = rhs(t + dt, y4)
        return tuple(yi + dt / 6.0 * (a + 2 * b + 2 * c + d)
                     for yi, a, b, c, d in zip(y, k1, k2, k3, k4))

    t, y = t0, tuple(y0)
    record(t, y)
    h_cur = h
    floor = h * _STEP_FLOOR_FACTOR
    for _ in range(_MAX_STEPS):
        full = rk4(t, y, h_cur)
        half = rk4(t + 0.5 * h_cur, rk4(t, y, 0.5 * h_cur), 0.5 * h_cur)
        err = max(abs(a - b) for a, b in zip(full, half)) / 15.0
        tol = _STEP_TOL * (1.0 + max(abs(v) for v in y))
        if err > tol:
            h_cur *= 0.5
            if h_cur < floor:
                raise StepTooLargeError(
                    f"local error {err:.3e} > {tol:.3e} at step floor")
            continue
        t, y = t + h_cur, half
        record(t, y)
        if stop(t, y):
            return t, y
        if err < 0.01 * tol and h_cur < h:
            h_cur = min(2.0 * h_cur, h)
    raise StepTooLargeError("step budget exhausted")


def shoot_bowl(n: int, r_max: float, h: float) -> RadialProfile:
    """Integrate the bowl soliton profile out to r_max.

    Starts from the two-term Taylor series at the axis,
    u'(r) = -r/n - r^3/(n^3 (n+2)) + O(r^5), and hands over to the
    integrator at r = 10 h.
    """
    if n < 2:
        raise ValueError("surface dimension n must be >= 2")
    if not (r_max > 0 and h > 0):
        raise ValueError("r_max and h must be positive")
    if r_max <= 12 * h:
        raise ValueError("r_max must exceed the series region 10 h")

    c3 = 1.0 / (n ** 3 * (n + 2))
    rs, us, psis = [], [], []
    for k in range(11):
        r = k * h
        up = -r / n - c3 * r ** 3
        rs.append(r)
        us.append(-r * r / (2 * n) - 0.25 * c3 * r ** 4)
        psis.append(math.atan(up))

    nm1 = n - 1

    def rhs(r, y):
        _, psi = y
        tp = math.tan(psi)
        return (tp, -1.0 - nm1 * tp / r)

    def record(r, y):
        if r > rs[-1]:
            rs.append(r)
            us.append(y[0])
            psis.append(y[1])

    _integrate_rk4(rhs, 10 * h, (us[-1], psis[-1]), h,
                   stop=lambda r, y: r >= r_max - 1e-12, record=record)
    prof = RadialProfile(n=n, kind=RadialKind.BOWL, lam=None,
                         r=np.array(rs), u=np.array(us), psi=np.array(psis), h=h)
    if not np.all(prof.psi[1:] < 0):
        raise NonMonotoneProfileError("bowl profile must be strictly monotone")
    return prof


def shoot_catenoid(n: int, lam: float, r_max: float, h: float):
    """Both wings of the translating catenoid with neck radius lam.

    Integration runs in arclength from (r, u, psi) = (lam, 0, +-pi/2), so the
    vertical tangent at the neck is a regular point.  Returns (upper, lower).
    """
    if n < 2:
        raise ValueError("surface dimension n must be >= 2")
    if lam <= 0:
        raise ValueError("neck radius lam must be positive")
    if r_max <= lam:
        raise ValueError("r_max must exceed the neck radius")

    nm1 = n - 1

    def rhs(s, y):
        r, _, psi = y
        c, si = math.cos(psi), math.sin(psi)
        return (c, si, -c - nm1 * si / r)

    def shoot(sign, kind):
        rs, us, psis = [], [], []

        def record(s, y):
            rs.append(y[0])
            us.append(y[1])
            psis.append(y[2])

        _integrate_rk4(rhs, 0.0, (lam, 0.0, sign * math.pi / 2), h,
                       stop=lambda s, y: y[0] >= r_max - 1e-12, record=record)
        return RadialProfile(n=n, kind=kind, lam=lam, r=np.array(rs),
                             u=np.array(us), psi=np.array(psis), h=h)

    upper = shoot(+1, RadialKind.CATENOID_UPPER)
    lower = shoot(-1, RadialKind.CATENOID_LOWER)
    return upper, lower


# --- asymptotics -------------------------------------------------------------


@dataclass
class AsymptoticFit:
    """Far-field fit u(r) = -(quadCoeff r^2 - logCoeff log r - constant).

    remainderBound is the max fit residual over the window; remainderSlope is
    the log-log decay slope of the next-order remainder (about -1 when the
    remainder behaves like 1/r; NaN when the remainder is at rounding level).
    """

    quadCoeff: float
    logCoeff: float
    constant: float
    remainderBound: float
    remainderSlope: float
    fitWindow: tuple


def fit_asymptotics(p: RadialProfile, r_lo: float, r_hi: float) -> AsymptoticFit:
    """Ordinary least squares of u against {r^2, log r, 1} on [r_lo, r_hi]."""
    if r_hi > p.r[-1] + 1e-12:
        raise WindowTooNarrowError("r_hi exceeds the profile range")
    if r_hi < 2.0 * r_lo:
        raise WindowTooNarrowError("fit window needs r_hi >= 2 r_lo")
    sel = (p.r >= r_lo) & (p.r <= r_hi)
    if sel.sum() < 8:
        raise WindowTooNarrowError("too few samples in the fit window")
    r, u = p.r[sel], p.u[sel]

    def ls(cols):
        A = np.stack(cols, axis=1)
        scale = np.max(np.abs(A), axis=0)
        coef, *_ = np.linalg.lstsq(A / scale, u, rcond=None)
        return coef / scale

    c2, cl, c0 = ls([r * r, np.log(r), np.ones_like(r)])
    fit = c2 * r * r + cl * np.log(r) + c0
    resid = u - fit
    bound = float(np.max(np.abs(resid)))

    # slope diagnostic: the 3-term LS residual oscillates (it is orthogonal to
    # the basis), so estimate the 1/r remainder from an augmented fit and
    # measure the decay of what the three leading terms leave behind
    d2, dl, d0, _inv = ls([r * r, np.log(r), np.ones_like(r), 1.0 / r])
    rem = u - (d2 * r * r + dl * np.log(r) + d0)
    mask = np.abs(rem) > 1e-12 * max(1.0, float(np.max(np.abs(u))))
    if mask.sum() >= 8:
        slope = float(np.polyfit(np.log(r[mask]), np.log(np.abs(rem[mask])), 1)[0])
    else:
        slope = float("nan")
    return AsymptoticFit(quadCoeff=float(-c2), logCoeff=float(cl),
                         constant=float(c0), remainderBound=bound,
                         remainderSlope=slope, fitWindow=(r_lo, r_hi))


# --- curvature fields and translator identities ------------------------------


def profile_curvatures(p: RadialProfile):
    """(s, kappa_prof, kappa_rot, H, normA2) from finite differences.

    All quantities are geometric (no use of the translator ODE), so
    non-translator profiles report honest curvatures.  Endpoint samples use
    one-sided differences.
    """
    s = np.concatenate([[0.0], np.cumsum(np.hypot(np.diff(p.r), np.diff(p.u)))])
    k_prof = np.gradient(p.psi, s)
    with np.errstate(divide="ignore", invalid="ignore"):
        k_rot = np.where(p.r > 0, np.sin(p.psi) / np.where(p.r > 0, p.r, 1.0),
                         np.nan)
    # removable limit at the axis: sin(psi)/r -> dpsi/ds
    if p.r[0] == 0.0:
        k_rot[0] = k_prof[0]
    H = k_prof + (p.n - 1) * k_rot
    normA2 = k_prof ** 2 + (p.n - 1) * k_rot ** 2
    return s, k_prof, k_rot, H, normA2


@dataclass
class RadialIdentityReport:
    """Finite-difference check of the two drift-curvature identities."""

    maxDefectK1: float
    maxDefectH: float
    defectK1: np.ndarray
    defectH: np.ndarray
    r: np.ndarray
    translatorLike: bool    # True when maxDefectH is small vs |A|^2 |H| scale


def radial_identities_report(p: RadialProfile, r_lo: float, r_hi: float,
                             umbilic_guard: float = 1e-3) -> RadialIdentityReport:
    """Evaluate the drift identities for kappa1 and H on [r_lo, r_hi].

    kappa1 >= kappa2 are the pointwise-sorted principal curvatures (surface
    dimension 2 in R^3 is assumed here).  The window must stay clear of
    umbilic samples; the bowl tip needs r_lo >= 0.1 in practice.
    """
    if p.n != 2:
        raise ValueError("identity report applies to surfaces in R^3 (n = 2)")
    s, k_prof, k_rot, H, normA2 = profile_curvatures(p)
    k1 = np.maximum(k_prof, k_rot)
    k2 = np.minimum(k_prof, k_rot)

    gap = 2  # endpoint one-sided differences are first-order; keep clear
    sel = (p.r >= r_lo) & (p.r <= r_hi)
    sel[:2 * gap] = False
    sel[-2 * gap:] = False
    if not np.any(sel):
        raise WindowTooNarrowError("empty identity window")
    if np.min(np.abs((k1 - k2)[sel])) < umbilic_guard:
        raise UmbilicWindowError(
            "window contains near-umbilic samples; shrink it")

    # Q^2 = (d kappa_rot / ds)^2: by rotational symmetry the angular
    # derivative of either curvature vanishes, and the Codazzi expression
    # reduces to the profile derivative of the rotational curvature
    q2 = np.gradient(k_rot, s) ** 2

    def drift(phi):
        ps = np.gradient(phi, s)
        pss = np.gradient(ps, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            rot = (p.n - 1) * (np.cos(p.psi) / p.r) * ps
        return pss + rot - np.sin(p.psi) * ps

    with np.errstate(divide="ignore", invalid="ignore"):
        defect_k1 = drift(k1) + normA2 * k1 - 2.0 * q2 / (k1 - k2)
    defect_h = drift(H) + normA2 * H

    d1 = float(np.max(np.abs(defect_k1[sel])))
    dh = float(np.max(np.abs(defect_h[sel])))
    scale = float(np.max(np.abs((normA2 * H)[sel])))
    return RadialIdentityReport(maxDefectK1=d1, maxDefectH=dh,
                                defectK1=np.where(sel, defect_k1, np.nan),
                                defectH=np.where(sel, defect_h, np.nan),
                                r=p.r.copy(),
                                translatorLike=bool(dh <= 0.05 * max(scale, 1e-30)))


def profile_to_grid(p: RadialProfile, x0: float, x1: float, y0: float,
                    y1: float, nx: int, ny: int) -> GridFunction:
    """Sample the surface of revolution as a height field over a rectangle.

    Every node radius hypot(x, y) must be covered by the profile.
    """
    # imported on use: scipy.interpolate adds ~0.3 s to every CLI start-up
    from scipy.interpolate import CubicSpline

    def height(X, Y):
        R = np.hypot(X, Y)
        if R.max() > p.r[-1] + 1e-12 or R.min() < p.r[0] - 1e-12:
            raise ValueError("grid radii not covered by the profile")
        return CubicSpline(p.r, p.u)(R)
    return from_function(height, x0, x1, y0, y1, nx, ny)

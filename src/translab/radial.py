"""Rotationally symmetric translators via ODE shooting.

Profiles are integrated in slope-angle variables, which keep both the
removable singularity at the axis (bowl) and the vertical tangent at a
catenoid neck regular:

    graph form (bowl, wing past the neck):
        du/dr = tan(psi),  dpsi/dr = -1 - (n-1) tan(psi)/r
    arclength form (through a neck):
        dr/ds = cos(psi),  du/ds = sin(psi),  dpsi/ds = -cos(psi) - (n-1) sin(psi)/r

Both encode H = -cos(psi) for the downward translation convention, with
principal curvatures kappa_prof = dpsi/ds and kappa_rot = sin(psi)/r
(multiplicity n-1).
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import TranslabError
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
    r: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)
    h: float
    # integrator counters; a profile read back from CSV has none
    steps: int = 0          # accepted steps
    rejected: int = 0       # rejected steps
    minStep: float = math.nan
    neckSamples: int = 0    # leading samples in arclength (catenoid wings)

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.psi = np.asarray(self.psi, dtype=float)
        if not all(np.all(np.isfinite(a)) for a in (self.r, self.u, self.psi)):
            raise TranslabError("profile samples must be finite")
        if not np.all(np.diff(self.r) > 0):
            raise TranslabError("profile radii must be strictly increasing")
        try:
            operator.index(self.n)      # a CSV header n=2.0 does not read back
        except TypeError:
            raise TranslabError(
                f"profile n must be an integer, got {self.n!r}") from None


# --- Dormand-Prince 5(4) with FSAL and a continuous extension -----------------

# Local error bound per step, relative to 1 + |y| per component.  The samples
# come from the 4th-order continuous extension, which is only C^1 across
# steps, and the drift identities take third differences of them.  On the
# bowl (n = 2, r <= 31) the h-halving ratio of the identity defect
# (h = 8e-3 -> 4e-3) is 4.00 for samples at the step ends; through the
# extension it is 2.02 at 1e-12 and 3.92 at 1e-13.  1e-14 keeps the ratio but
# moves the h = 8e-3 defect by 1.3e-10; 1e-15 stays within 5e-11.
_STEP_TOL = 1e-15
_STEP_FLOOR_FACTOR = 2.0 ** -30     # of the first trial step, which is h
_MAX_STEPS = 500_000
_MAX_SAMPLES = 10_000_000  # r_max / h above this is refused before integrating
_R_SLACK = 1e-12           # a radius within this of r_max counts as reached

# Dormand & Prince, J. Comput. Appl. Math. 6 (1980): nodes, stages, the fifth-
# order weights (the last stage row, so rhs(t + dt, y_new) is the next k1), the
# error weights b5 - b4, and the continuous extension of Hairer-Norsett-Wanner,
# Solving ODEs I, sec. II.6
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9)
_A = ((1 / 5,),
      (3 / 40, 9 / 40),
      (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
      (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))   # a72 = 0
_E = (71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_D = (-12715105075 / 11282082432, 87487479700 / 32700410799,
      -10690763975 / 1880347072, 701980252875 / 199316789632,
      -1453857185 / 822651844, 69997945 / 29380423)


@dataclass
class _Run:
    """Accepted steps of one _dopri5 run and their continuous extension."""

    t: np.ndarray          # (N,) step starts
    dt: np.ndarray         # (N,) step lengths
    coef: tuple            # five (N, m) interpolant coefficients per step
    t_end: float
    y_end: list            # the last accepted state
    rejected: int

    def __call__(self, ts) -> np.ndarray:
        """States (len(ts), m) at times ts in [t[0], t_end], in one pass over
        c1 + th (c2 + (1 - th) (c3 + th (c4 + (1 - th) c5))), inside out."""
        k = np.clip(np.searchsorted(self.t, ts, side="right") - 1, 0,
                    len(self.t) - 1)
        th = ((ts - self.t[k]) / self.dt[k])[:, None]
        c1, c2, c3, c4, c5 = self.coef
        y = c5[k]
        for c, w in ((c4, 1 - th), (c3, th), (c2, 1 - th), (c1, th)):
            y *= w
            y += c[k]
        return y


def _dopri5(rhs, t, y, dt, stop, what) -> _Run:
    """Integrate from (t, y), y of m = 2 or 3 floats (a, b[, c]), with
    trial step dt until stop(t, a, b, c) holds after an accepted step.

    rhs(t, a, b, c) -> three floats.  A 2-float state carries the pad
    c = 0.0, whose rhs value must be 0.0: its stages and error are exact
    zeros.  A step is accepted when its error estimate is below _STEP_TOL
    (1 + |y_new|) in every component, so a NaN in any is rejected; the next
    step follows the usual 0.9 (tol / err)^(1/5) rule, within [0.2, 5] times
    the last and not larger right after a rejection.  The last stage of a
    step is the first of the next (FSAL), so an attempt costs 6 evaluations
    after the first.  A stage out of rhs's domain (cos(inf), r = 0) rejects
    its step.  A step below 2^-30 times the trial step, or more than
    _MAX_STEPS attempts, raise TranslabError; the second names the run and
    its variable t by what (say "bowl of n = 2: radius r"), the t reached
    and the step size.  Each accepted step records t, dt, then y, y_new, k1,
    k3, ..., k7 of each component but the pad: 2 + 8 m values.
    """
    floor = dt * _STEP_FLOOR_FACTOR
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65), (b1, b3, b4, b5, b6) = _A
    c2, c3, c4, c5 = _C
    e1, e3, e4, e5, e6, e7 = _E
    m = len(y)
    a, b, c = (*y, 0.0)[:3]
    rec = array("d")
    rejected = 0
    grow = 5.0
    p1, q1, s1 = rhs(t, a, b, c)     # k1 of components a, b, c
    for _ in range(_MAX_STEPS):
        try:
            p2, q2, s2 = rhs(t + c2 * dt, a + dt * a21 * p1, b + dt * a21 * q1,
                             c + dt * a21 * s1)
            p3, q3, s3 = rhs(t + c3 * dt, a + dt * (a31 * p1 + a32 * p2),
                             b + dt * (a31 * q1 + a32 * q2),
                             c + dt * (a31 * s1 + a32 * s2))
            p4, q4, s4 = rhs(t + c4 * dt, a + dt * (a41 * p1 + a42 * p2 + a43 * p3),
                             b + dt * (a41 * q1 + a42 * q2 + a43 * q3),
                             c + dt * (a41 * s1 + a42 * s2 + a43 * s3))
            p5, q5, s5 = rhs(t + c5 * dt,
                             a + dt * (a51 * p1 + a52 * p2 + a53 * p3 + a54 * p4),
                             b + dt * (a51 * q1 + a52 * q2 + a53 * q3 + a54 * q4),
                             c + dt * (a51 * s1 + a52 * s2 + a53 * s3 + a54 * s4))
            p6, q6, s6 = rhs(
                t + dt, a + dt * (a61 * p1 + a62 * p2 + a63 * p3 + a64 * p4 + a65 * p5),
                b + dt * (a61 * q1 + a62 * q2 + a63 * q3 + a64 * q4 + a65 * q5),
                c + dt * (a61 * s1 + a62 * s2 + a63 * s3 + a64 * s4 + a65 * s5))
            an = a + dt * (b1 * p1 + b3 * p3 + b4 * p4 + b5 * p5 + b6 * p6)
            bn = b + dt * (b1 * q1 + b3 * q3 + b4 * q4 + b5 * q5 + b6 * q6)
            cn = c + dt * (b1 * s1 + b3 * s3 + b4 * s4 + b5 * s5 + b6 * s6)
            p7, q7, s7 = rhs(t + dt, an, bn, cn)
        except (ValueError, ZeroDivisionError):     # out of rhs's domain
            ea = eb = ec = math.inf
        else:
            ea = abs(dt * (e1 * p1 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6
                           + e7 * p7)) / (1.0 + abs(an))
            eb = abs(dt * (e1 * q1 + e3 * q3 + e4 * q4 + e5 * q5 + e6 * q6
                           + e7 * q7)) / (1.0 + abs(bn))
            ec = abs(dt * (e1 * s1 + e3 * s3 + e4 * s4 + e5 * s5 + e6 * s6
                           + e7 * s7)) / (1.0 + abs(cn))
        # max keeps a NaN only when it comes first
        err = math.nan if math.isnan(ea + eb + ec) else max(ea, eb, ec)
        fac = 0.9 * (_STEP_TOL / err) ** 0.2 if err > 0 else 0.0
        if not err < _STEP_TOL:
            rejected += 1
            dt *= max(0.2, fac)
            grow = 1.0
            if dt < floor:
                raise TranslabError(
                    f"local error {err:.3e} above tolerance {_STEP_TOL:.1e} "
                    "at the step floor")
            continue
        rec.extend((t, dt, a, an, p1, p3, p4, p5, p6, p7, b, bn, q1, q3, q4, q5,
                    q6, q7, c, cn, s1, s3, s4, s5, s6, s7)[:2 + 8 * m])
        t, a, b, c, p1, q1, s1 = t + dt, an, bn, cn, p7, q7, s7
        if stop(t, a, b, c):
            return _make_run(rec, m, t, (a, b, c)[:m], rejected)
        dt *= min(fac, grow) if err > 0 else grow
        grow = 5.0
    raise TranslabError(f"{what} = {t!r} reached when the step budget of "
                        f"{_MAX_STEPS} attempts ran out, step size {dt:.3e}")


def _make_run(rec, m, t_end, y_end, rejected) -> _Run:
    a = np.frombuffer(rec).reshape(-1, 2 + 8 * m)
    y0, y1, k1, k3, k4, k5, k6, k7 = (a[:, 2 + q::8] for q in range(8))
    dt = a[:, 1:2]
    d1, d3, d4, d5, d6, d7 = _D
    diff = y1 - y0
    c3 = dt * k1 - diff
    c4 = diff - dt * k7 - c3
    c5 = dt * (d1 * k1 + d3 * k3 + d4 * k4 + d5 * k5 + d6 * k6 + d7 * k7)
    return _Run(t=a[:, 0], dt=a[:, 1], coef=(y0, diff, c3, c4, c5),
                t_end=t_end, y_end=y_end, rejected=rejected)


def _check_inputs(n, **positive):
    if n < 2:
        raise TranslabError("surface dimension n must be >= 2")
    try:
        1.0 / (n ** 3 * (n + 2))    # the bowl's series coefficient
    except OverflowError:
        raise TranslabError(f"surface dimension n = {n!r} is too large: "
                            "n^3 (n + 2) leaves the float range") from None
    for name, v in positive.items():
        if not (math.isfinite(v) and v > 0):
            raise TranslabError(f"{name} must be finite and positive, not {v!r}")
    if positive["r_max"] / positive["h"] > _MAX_SAMPLES:
        raise TranslabError(f"r_max / h must not exceed {_MAX_SAMPLES} samples")


def _graph_rhs(n):
    """Graph form in r for (u, psi), with _dopri5's pad c = 0.0."""
    nm1 = n - 1

    def rhs(r, u, psi, _):
        tp = math.tan(psi)
        return tp, -1.0 - nm1 * tp / r, 0.0
    return rhs


def _counters(*runs):
    return dict(steps=sum(len(run.t) for run in runs),
                rejected=sum(run.rejected for run in runs),
                minStep=float(min(run.dt.min() for run in runs)))


def _radii(r0, r_max, h):
    """r0 + k h for k = 1, 2, ... up to the first that reaches r_max."""
    k = np.arange(1, max(1, math.ceil((r_max - _R_SLACK - r0) / h)) + 2)
    r = r0 + k * h
    return r[:np.argmax(r >= r_max - _R_SLACK) + 1]


def shoot_bowl(n: int, r_max: float, h: float) -> RadialProfile:
    """Integrate the bowl soliton profile out to r_max at radii r_k = k h.

    Starts from the two-term Taylor series at the axis,
    u'(r) = -r/n - r^3/(n^3 (n+2)) + O(r^5), which gives the samples up to
    r = 10 h, where the integrator takes over.
    """
    _check_inputs(n, r_max=r_max, h=h)
    if r_max <= 12 * h:
        raise TranslabError("r_max must exceed the series region 10 h")

    c3 = 1.0 / (n ** 3 * (n + 2))
    series = []                # (u, psi) at r = k h, k <= 10
    for k in range(11):
        r = k * h
        up = -r / n - c3 * r ** 3
        series.append((-r * r / (2 * n) - 0.25 * c3 * r ** 4, math.atan(up)))

    r = np.concatenate([[0.0], _radii(0.0, r_max, h)])
    run = _dopri5(_graph_rhs(n), 10 * h, series[-1], h,
                  stop=lambda t, *_: t >= r[-1], what=f"bowl of n = {n}: radius r")
    y = np.concatenate([series, run(r[11:])])
    prof = RadialProfile(n=n, kind=RadialKind.BOWL, lam=None, r=r,
                         u=y[:, 0], psi=y[:, 1], h=h, **_counters(run))
    if not np.all(prof.psi[1:] < 0):
        raise TranslabError("bowl profile must be strictly monotone")
    return prof


def shoot_catenoid_wing(n: int, lam: float, r_max: float, h: float,
                        kind: RadialKind) -> RadialProfile:
    """One wing (kind CATENOID_UPPER or CATENOID_LOWER) of the translating
    catenoid with neck radius lam.

    Integration starts in arclength from (r, u, psi) = (lam, 0, +-pi/2), so
    the vertical tangent at the neck is a regular point, with samples at
    s = k h.  At the first accepted step with |tan psi| <= r it hands over to
    graph form, the bowl's equation, and samples at spacing h in r from the
    handover radius on; the first neckSamples samples are the arclength ones.
    """
    _check_inputs(n, lam=lam, r_max=r_max, h=h)
    if not math.isfinite((n - 1) / lam):    # the neck's (n-1) sin(psi) / r
        raise TranslabError(f"neck radius lam = {lam!r}: (n - 1)/lam overflows")
    if r_max <= lam:
        raise TranslabError("r_max must exceed the neck radius")
    if kind is RadialKind.BOWL:
        raise TranslabError("a catenoid wing is catenoid-upper or catenoid-lower")
    sign = +1 if kind is RadialKind.CATENOID_UPPER else -1

    nm1 = n - 1

    def rhs(s, r, u, psi):
        c, si = math.cos(psi), math.sin(psi)
        return (c, si, -c - nm1 * si / r)

    # |dr/ds| <= 1: past r_max + h, a sample at s <= s_end has reached r_max
    neck = _dopri5(rhs, 0.0, (lam, 0.0, sign * math.pi / 2), h,
                   stop=lambda s, r, u, psi: (abs(math.tan(psi)) <= r
                                              or r >= r_max + h),
                   what=f"catenoid neck of n = {n}: arclength s")
    s = np.arange(math.floor(neck.t_end / h) + 1) * h
    y = neck(s[s <= neck.t_end])
    reached = np.flatnonzero(y[:, 0] >= r_max - _R_SLACK)
    if reached.size:        # r_max comes before the handover
        y = y[:reached[0] + 1]
        neck_samples, runs = len(y), [neck]
    else:
        r0, u0, psi0 = neck.y_end
        r = _radii(r0, r_max, h)
        graph = _dopri5(_graph_rhs(n), r0, (u0, psi0), h,
                        stop=lambda t, *_: t >= r[-1],
                        what=f"catenoid wing of n = {n}: radius r")
        neck_samples, runs = len(y), [neck, graph]
        y = np.concatenate([y, np.column_stack([r, graph(r)])])
    return RadialProfile(n=n, kind=kind, lam=lam, r=y[:, 0], u=y[:, 1],
                         psi=y[:, 2], h=h, neckSamples=neck_samples,
                         **_counters(*runs))


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
    if not 0 < r_lo < math.inf:
        raise TranslabError(f"fit bound r_lo must be finite and "
                            f"positive, got {r_lo}")
    if not math.isfinite(r_hi):
        raise TranslabError(f"fit bound r_hi must be finite, got {r_hi}")
    if r_hi > p.r[-1] + 1e-12:
        raise TranslabError("r_hi exceeds the profile range")
    if r_hi < 2.0 * r_lo:
        raise TranslabError("fit window needs r_hi >= 2 r_lo")
    sel = (p.r >= r_lo) & (p.r <= r_hi)
    if sel.sum() < 8:
        raise TranslabError("too few samples in the fit window")
    r, u = p.r[sel], p.u[sel]
    lo, hi = float(r[0]), float(r[-1])      # the r^2 column, as Python floats
    if not (lo * lo > 0 and math.isfinite(hi * hi)):
        raise TranslabError(f"fit samples r in [{lo!r}, {hi!r}]: r^2 leaves "
                            "the float range")

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

# radial_identities_report refuses a window where |kappa1 - kappa2| < this
UMBILIC_GUARD = 1e-3


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
    translatorLike: bool    # True when maxDefectH is small vs |A|^2 |H| scale


def radial_identities_report(p: RadialProfile, r_lo: float,
                             r_hi: float) -> RadialIdentityReport:
    """Evaluate the drift identities for kappa1 and H on [r_lo, r_hi].

    kappa1 >= kappa2 are the pointwise-sorted principal curvatures (surface
    dimension 2 in R^3 is assumed here).  The window must stay clear of
    umbilic samples; the bowl tip needs r_lo >= 0.1 in practice.
    """
    if p.n != 2:
        raise TranslabError("identity report applies to surfaces in R^3 (n = 2)")
    s, k_prof, k_rot, H, normA2 = profile_curvatures(p)
    k1 = np.maximum(k_prof, k_rot)
    k2 = np.minimum(k_prof, k_rot)

    gap = 2  # endpoint one-sided differences are first-order; keep clear
    sel = (p.r >= r_lo) & (p.r <= r_hi)
    sel[:2 * gap] = False
    sel[-2 * gap:] = False
    if not np.any(sel):
        raise TranslabError("empty identity window")
    if np.min(np.abs((k1 - k2)[sel])) < UMBILIC_GUARD:
        raise TranslabError(
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
                                translatorLike=bool(dh <= 0.05 * max(scale, 1e-30)))


def profile_to_grid(p: RadialProfile, x0: float, x1: float, y0: float,
                    y1: float, nx: int, ny: int) -> GridFunction:
    """Sample the bowl as a height field over a rectangle by cubic Hermite
    interpolation on (r, u, tan psi), the integrator's own slopes: O(h^4).
    Every node radius hypot(x, y) must be covered by the profile; catenoid
    wings are refused, as tan psi is infinite at the neck."""
    if p.kind is not RadialKind.BOWL:
        raise TranslabError("only bowl profiles can be sampled onto a grid")

    def height(X, Y):
        R = np.hypot(X, Y)
        if R.max() > p.r[-1] + 1e-12 or R.min() < p.r[0] - 1e-12:
            raise TranslabError("grid radii not covered by the profile")
        k = np.clip(np.searchsorted(p.r, R, side="right") - 1, 0, len(p.r) - 2)
        dr = p.r[k + 1] - p.r[k]
        t = (R - p.r[k]) / dr
        m = np.tan(p.psi)
        s = 1 - t
        return (s * s * ((1 + 2 * t) * p.u[k] + t * dr * m[k])
                + t * t * ((3 - 2 * t) * p.u[k + 1] - s * dr * m[k + 1]))
    return from_function(height, x0, x1, y0, y1, nx, ny)

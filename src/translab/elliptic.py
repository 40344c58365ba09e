"""Damped-Newton finite-difference solver for the translator equation on
truncated strips; computes numerical Delta-wings and width continuation.

Domain layout: x is the unbounded direction, truncated to [-L, L]; y is the
strip direction, truncated to [-shrink*b, shrink*b] so the tilted-grim-reaper
boundary data stays finite.  In the downward convention the wing is concave
with its maximum at the origin and is asymptotic, as |x| grows, to the two
tilted grim reapers with cos(theta) = pi / (2 b); the Dirichlet data is their
pointwise lower envelope sec^2(th) log cos(y cos th) - tan(th) |x|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import catalog
from .errors import (ContinuationBrokenError, LinearSolveFailureError,
                     MaxIterationsError, NewtonStalledError,
                     ShapeMismatchError)
from .geom import interior_jet
from .grid import GridFunction


@dataclass
class StripProblem:
    """Dirichlet problem for the translator equation on a truncated strip.

    bc holds the boundary data on the outer node ring of the (nx, ny) grid;
    its interior entries are ignored.
    """

    b: float
    L: float
    shrink: float
    nx: int
    ny: int
    bc: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("strip half-width b must be positive")
        if self.L < 4:
            raise ValueError("truncation length L must be >= 4")
        if not (0.9 <= self.shrink < 1.0):
            raise ValueError("shrink must lie in [0.9, 1)")
        if self.nx < 33 or self.ny < 33:
            raise ValueError("resolution must be at least 33x33")
        self.bc = np.asarray(self.bc, dtype=float)
        if self.bc.shape != (self.nx, self.ny):
            raise ShapeMismatchError("bc shape does not match the grid")

    @property
    def hx(self) -> float:
        return 2.0 * self.L / (self.nx - 1)

    @property
    def hy(self) -> float:
        return 2.0 * self.shrink * self.b / (self.ny - 1)

    @property
    def xs(self) -> np.ndarray:
        return -self.L + self.hx * np.arange(self.nx)

    @property
    def ys(self) -> np.ndarray:
        return -self.shrink * self.b + self.hy * np.arange(self.ny)

    def grid(self, values: np.ndarray) -> GridFunction:
        return GridFunction(self.nx, self.ny, self.hx, self.hy,
                            -self.L, -self.shrink * self.b, values)


TOL_RESIDUAL = 1e-9        # Newton converges at max |defect| <= this
MAX_NEWTON = 50            # ... or fails after this many iterations
DAMPING_MIN = 2.0 ** -10   # ... or stalls when backtracking goes below this


@dataclass
class SolveReport:
    """Newton outcome.  finalResidualMax is the max mean-curvature defect
    |R| / W^3 (the scale-invariant form of the residual; the raw polynomial
    residual R carries coefficients ~ W^2 that reach 1e4 in the guard band
    next to the strip edge, where its float64 evaluation floor sits near
    1e-8).  rawResidualMax reports max |R| for reference."""

    iterations: int
    finalResidualMax: float
    dampingHistory: list
    centerHessian: np.ndarray          # 2x2 D^2 u at the node nearest (0, 0)
    concaveFlag: bool
    symmetryDefect: float
    maxBoundaryGradient: float         # completeness proxy, outermost interior ring
    rawResidualMax: float = float("nan")
    k: float = float("nan")            # smaller |eigenvalue| of centerHessian
    asymptoteDefect: float = float("nan")
    factorizations: int = 0            # sparse LU factorizations computed
    luFill: int = 0                    # nnz(L + U) of the last factorization
    defectHistory: list = field(default_factory=list)  # max |defect| per step


def tilted_pair_envelope(b: float, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pointwise lower envelope of the two tilted grim reapers over the strip.

    min(G_th, G_-th) = sec^2(th) log cos(y cos th) - tan(th) |x| with
    cos(th) = pi / (2 b); this is the surface the wing is asymptotic to on
    each side, so truncation error concentrates near the x = 0 crease.
    """
    if b <= math.pi / 2:
        raise ValueError("tilted pair needs b > pi/2")
    c = math.pi / (2.0 * b)
    theta = math.acos(c)
    sec2 = 1.0 / (c * c)
    return sec2 * np.log(np.cos(Y * c)) - math.tan(theta) * np.abs(X)


def _check_boundary(u: np.ndarray, p: StripProblem):
    same = (np.array_equal(u[0, :], p.bc[0, :])
            and np.array_equal(u[-1, :], p.bc[-1, :])
            and np.array_equal(u[:, 0], p.bc[:, 0])
            and np.array_equal(u[:, -1], p.bc[:, -1]))
    if not same:
        raise ShapeMismatchError("boundary rows do not hold the Dirichlet data")


def assemble_residual(u: GridFunction, p: StripProblem) -> np.ndarray:
    """Interior residual of the discrete translator equation, shape
    (nx-2, ny-2); the same arithmetic as the Newton solver's."""
    if u.values.shape != (p.nx, p.ny):
        raise ShapeMismatchError("height field does not match the problem grid")
    _check_boundary(u.values, p)
    return _residual(u.values, p.hx, p.hy)[1]


def _residual(v: np.ndarray, hx: float, hy: float):
    """(jet, residual, defect) on the interior: the geometry module's jet,
    the translator residual of it, and the mean-curvature defect
    residual / W^3, which equals H + <e3, N> pointwise."""
    jet = p, q, r, s, t = interior_jet(v, hx, hy)
    res = catalog.pde_residual(v[1:-1, 1:-1], (p, q), (r, s, t))
    return jet, res, res / (1 + p * p + q * q) ** 1.5


# The nine stencil offsets (di, dj) of the Jacobian: entry (n, n + (di, dj))
# of row n.  Listed by decreasing (di, dj), so that the rows meeting one column
# come out in increasing order.
_OFFSETS = ((1, 1), (1, 0), (1, -1), (0, 1), (0, 0), (0, -1),
            (-1, 1), (-1, 0), (-1, -1))


def _jacobian_pattern(mi: int, mj: int):
    """CSC structure of the 9-point stencil clipped to an mi x mj interior:
    (indptr, indices, gather), where gather picks each stored entry, column
    by column and by increasing row, from the coefficient arrays of _OFFSETS
    stacked and raveled.  Built once per solve; iterations refill data only."""
    n = mi * mj
    I, J = np.meshgrid(np.arange(mi), np.arange(mj), indexing="ij")
    rows = np.empty((n, len(_OFFSETS)), dtype=np.int64)
    inside = np.empty((n, len(_OFFSETS)), dtype=bool)
    for k, (di, dj) in enumerate(_OFFSETS):
        ii, jj = I - di, J - dj        # the row meeting this column at (di, dj)
        inside[:, k] = ((ii >= 0) & (ii < mi) & (jj >= 0) & (jj < mj)).ravel()
        rows[:, k] = (ii * mj + jj).ravel()
    src = rows + n * np.arange(len(_OFFSETS))
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(inside.sum(axis=1), out=indptr[1:])
    return (indptr, rows[inside].astype(np.int32), src[inside])


def _jacobian(jet, hx: float, hy: float, pattern) -> sp.csc_matrix:
    """Analytic Jacobian of the interior residual w.r.t. interior unknowns,
    from the interior jet (p, q, r, s, t) of the current iterate; pattern is
    _jacobian_pattern of the interior shape."""
    p, q, r, s, t = jet
    mi, mj = p.shape
    indptr, indices, gather = pattern

    Ap = -2 * q * s + 2 * p * t + 2 * p       # dR/du_x
    Aq = 2 * q * r - 2 * p * s + 2 * q        # dR/du_y
    Ar = 1 + q * q                            # dR/du_xx
    As = -2 * p * q                           # dR/du_xy
    At = 1 + p * p                            # dR/du_yy

    coefs = {
        (+1, 0): Ap / (2 * hx) + Ar / (hx * hx),
        (-1, 0): -Ap / (2 * hx) + Ar / (hx * hx),
        (0, +1): Aq / (2 * hy) + At / (hy * hy),
        (0, -1): -Aq / (2 * hy) + At / (hy * hy),
        (0, 0): -2 * Ar / (hx * hx) - 2 * At / (hy * hy),
        (+1, +1): As / (4 * hx * hy),
        (-1, -1): As / (4 * hx * hy),
        (+1, -1): -As / (4 * hx * hy),
        (-1, +1): -As / (4 * hx * hy),
    }
    data = np.stack([coefs[o] for o in _OFFSETS]).ravel()[gather]
    n = mi * mj
    return sp.csc_matrix((data, indices, indptr), shape=(n, n))


def _factor(J: sp.csc_matrix):
    """Sparse LU of J under a minimum-degree ordering of J + J^T."""
    try:
        return splu(J, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise LinearSolveFailureError(str(exc)) from exc


def _quadrant_fold(mi: int, mj: int):
    """(rows, P) of the mirror fold of an mi x mj interior: rows are the raveled
    indices of the quadrant i >= mi // 2, j >= mj // 2 (centre lines
    included), and P, (mi*mj) x len(rows), is the 0/1 unfold matrix that maps
    each node to its reflection in the quadrant (itself if it lies there)."""
    i0, j0 = mi // 2, mj // 2
    fi = np.maximum(np.arange(mi), np.arange(mi)[::-1]) - i0
    fj = np.maximum(np.arange(mj), np.arange(mj)[::-1]) - j0
    cols = (fi[:, None] * (mj - j0) + fj).ravel()
    n = mi * mj
    P = sp.csr_matrix((np.ones(n), cols, np.arange(n + 1)),
                      shape=(n, (mi - i0) * (mj - j0)))
    I, J = np.meshgrid(np.arange(i0, mi), np.arange(j0, mj), indexing="ij")
    return (I * mj + J).ravel(), P


def _check_mirror_symmetric(bc: np.ndarray):
    """Raise ValueError unless the boundary data on the outer node ring equals
    its reflections about both midlines up to round-off."""
    ring = np.ones(bc.shape, dtype=bool)
    ring[1:-1, 1:-1] = False
    defect = float(np.max(np.maximum(np.abs(bc - bc[::-1, :]),
                                     np.abs(bc - bc[:, ::-1]))[ring]))
    tol = 1e-12 * max(1.0, float(np.max(np.abs(bc[ring]))))
    if defect > tol:
        raise ValueError("boundary data is not symmetric about both midlines "
                         f"(defect {defect:.3e} > {tol:.3e})")


def _newton_step(lu, Jq: sp.csc_matrix, res: np.ndarray, rows: np.ndarray,
                 P: sp.csr_matrix) -> np.ndarray:
    """Solve the folded system Jq dq = -res[rows] with the factorization lu,
    which may belong to an earlier iterate, plus one refinement pass against
    the current Jq; return the step P dq unfolded onto the whole interior."""
    rhs = -res.ravel()[rows]
    delta = lu.solve(rhs)
    delta += lu.solve(rhs - Jq @ delta)
    if not np.all(np.isfinite(delta)):
        raise LinearSolveFailureError("linear solve returned non-finite values")
    return (P @ delta).reshape(res.shape)


def newton_solve(p: StripProblem, init: GridFunction):
    """Damped Newton on the discrete translator equation.

    The Newton systems use the raw residual and its analytic Jacobian with a
    deterministic sparse LU factorization (minimum-degree ordering of
    J + J^T) and one iterative-refinement pass against the current Jacobian.
    The LU is computed on steps 0, 2, 4, ... and reused on the odd steps
    (Shamanskii's method); a step from a reused LU that fails the full-step
    Armijo test is recomputed from a fresh LU at the current iterate, so
    damping only ever acts on fresh Newton directions.  Armijo backtracking
    and the convergence test TOL_RESIDUAL act on the mean-curvature defect
    residual/W^3, which stays numerically meaningful in the guard band next
    to the strip edge.

    The strip problem is symmetric about both midlines, and so is its
    solution: the interior of init is replaced by the average of its four
    reflections (bit-symmetric), and every linear system is folded onto the
    quadrant of _quadrant_fold, Jq = J[rows] P, whose step P dq keeps the
    iterate symmetric.  Residual, Jacobian and convergence test stay on the
    full grid.  Boundary data that is not mirror symmetric is a ValueError.
    Returns (solution, SolveReport).
    """
    if init.values.shape != (p.nx, p.ny):
        raise ShapeMismatchError("initial guess does not match the problem grid")
    _check_boundary(init.values, p)
    _check_mirror_symmetric(p.bc)
    hx, hy = p.hx, p.hy
    v = init.values.copy()
    a = v[1:-1, 1:-1] + v[-2:0:-1, 1:-1]
    v[1:-1, 1:-1] = 0.25 * (a + a[:, ::-1])
    pattern = _jacobian_pattern(p.nx - 2, p.ny - 2)
    rows, P = _quadrant_fold(p.nx - 2, p.ny - 2)
    damping_history, defect_history = [], []
    lu, factorizations = None, 0

    jet, res, defect = _residual(v, hx, hy)
    fnorm = float(np.linalg.norm(defect))
    iterations = 0
    for it in range(MAX_NEWTON):
        if np.max(np.abs(defect)) <= TOL_RESIDUAL:
            break
        J = _jacobian(jet, hx, hy, pattern)
        Jq = (J[rows, :] @ P).tocsc()
        fresh = it % 2 == 0
        if fresh:
            lu = None                   # release the old LU before the new one
            lu = _factor(Jq)
            factorizations += 1
        delta = _newton_step(lu, Jq, res, rows, P)

        lam = 1.0
        while True:
            trial = v.copy()
            trial[1:-1, 1:-1] += lam * delta
            tjet, tres, tdef = _residual(trial, hx, hy)
            tnorm = float(np.linalg.norm(tdef))
            if np.isfinite(tnorm) and tnorm <= (1.0 - 1e-4 * lam) * fnorm:
                break
            if not fresh:               # reused LU: refactor, retake the step
                lu = None
                lu = _factor(Jq)
                factorizations += 1
                fresh = True
                delta = _newton_step(lu, Jq, res, rows, P)
                continue
            lam *= 0.5
            if lam < DAMPING_MIN:
                raise NewtonStalledError(
                    f"damping floor hit at iteration {it}, |defect| = {fnorm:.3e}")
        damping_history.append(lam)
        v, jet, res, defect, fnorm = trial, tjet, tres, tdef, tnorm
        defect_history.append(float(np.max(np.abs(defect))))
        iterations = it + 1
    else:
        if np.max(np.abs(defect)) > TOL_RESIDUAL:
            raise MaxIterationsError(
                f"no convergence in {MAX_NEWTON} Newton iterations")

    sol = p.grid(v)
    report = _make_report(sol, jet, p, iterations,
                          float(np.max(np.abs(defect))), damping_history)
    report.rawResidualMax = float(np.max(np.abs(res)))
    report.factorizations = factorizations
    report.luFill = 0 if lu is None else int(lu.nnz)
    report.defectHistory = defect_history
    return sol, report


def _make_report(sol: GridFunction, jet, p: StripProblem, iterations: int,
                 res_max: float, damping_history: list) -> SolveReport:
    v = sol.values
    gp, gq, r, s, t = jet
    # D^2 u at the node nearest the origin (interior index = node index - 1)
    ic = int(np.argmin(np.abs(p.xs))) - 1
    jc = int(np.argmin(np.abs(p.ys))) - 1
    center_hessian = np.array([[r[ic, jc], s[ic, jc]], [s[ic, jc], t[ic, jc]]])
    eigs = np.linalg.eigvalsh(center_hessian)
    k = float(np.min(np.abs(eigs)))

    # concavity over all interior nodes: largest eigenvalue of D^2 u
    lam_max = 0.5 * (r + t) + np.sqrt(0.25 * (r - t) ** 2 + s * s)
    scale = max(np.max(np.abs(r)), np.max(np.abs(t)), np.max(np.abs(s)))
    concavity_tol = 1e-6 * scale
    concave = bool(np.max(lam_max) <= concavity_tol)

    sym = max(float(np.max(np.abs(v - v[::-1, :]))),
              float(np.max(np.abs(v - v[:, ::-1]))))

    # boundary-gradient proxy on the outermost interior ring
    gmag = np.sqrt(gp * gp + gq * gq)
    ring = np.zeros_like(gmag, dtype=bool)
    ring[0, :] = ring[-1, :] = True
    ring[:, 0] = ring[:, -1] = True
    bgrad = float(np.max(gmag[ring]))

    return SolveReport(iterations=iterations, finalResidualMax=res_max,
                       dampingHistory=damping_history,
                       centerHessian=center_hessian, concaveFlag=concave,
                       symmetryDefect=sym, maxBoundaryGradient=bgrad, k=k)


def make_strip_problem(b: float, L: float, nx: int, ny: int,
                       shrink: float = 0.995) -> StripProblem:
    """Strip problem with tilted-pair envelope Dirichlet data (b > pi/2)."""
    p = StripProblem(b=b, L=L, shrink=shrink, nx=nx, ny=ny,
                     bc=np.zeros((nx, ny)))
    p.bc = tilted_pair_envelope(b, *np.meshgrid(p.xs, p.ys, indexing="ij"))
    return p


def _smoothed(p: StripProblem, v: np.ndarray, sweeps: int) -> GridFunction:
    """v with p's Dirichlet data stamped on the outer ring, then smoothed by
    Jacobi sweeps of the Laplacian (in place)."""
    v[0, :], v[-1, :] = p.bc[0, :], p.bc[-1, :]
    v[:, 0], v[:, -1] = p.bc[:, 0], p.bc[:, -1]
    for _ in range(sweeps):
        v[1:-1, 1:-1] = 0.25 * (v[2:, 1:-1] + v[:-2, 1:-1]
                                + v[1:-1, 2:] + v[1:-1, :-2])
    return p.grid(v)


def initial_guess(p: StripProblem) -> GridFunction:
    """Smoothed envelope: five Jacobi sweeps round the crease along x = 0."""
    X, Y = np.meshgrid(p.xs, p.ys, indexing="ij")
    return _smoothed(p, tilted_pair_envelope(p.b, X, Y), 5)


def asymptote_defect(sol: GridFunction, p: StripProblem) -> float:
    """Defect against the asymptotic tilted reapers near the ends of the box.

    For each side the comparison surface is the reaper the wing approaches
    there, aligned by the best constant shift (midrange of the difference);
    the bands cover interior nodes with |x| in [0.85, 1] * L.
    """
    X, Y = np.meshgrid(p.xs, p.ys, indexing="ij")
    reaper = tilted_pair_envelope(p.b, X, Y)
    worst = 0.0
    for sgn in (+1, -1):
        sel = (sgn * X >= 0.85 * p.L) & (sgn * X <= p.L)
        sel[0, :] = sel[-1, :] = False
        sel[:, 0] = sel[:, -1] = False
        diff = (sol.values - reaper)[sel]
        shift = 0.5 * (float(np.max(diff)) + float(np.min(diff)))
        worst = max(worst, float(np.max(np.abs(diff - shift))))
    return worst


def delta_wing(b: float, L: float = 12.0, nx: int = 961, ny: int = 161,
               shrink: float = 0.995):
    """Solve for the Delta-wing over the strip of half-width b (> pi/2).

    Boundary data and initial guess come from the tilted-pair envelope with
    cos(theta) = pi/(2 b).  One Newton solve, no retry: its NewtonStalledError
    or MaxIterationsError is the caller's.  The report carries the center
    Hessian (expected eigenvalues (-k, -(1-k))), concavity and symmetry
    checks, and the constant-shift defect against the asymptotic reapers.
    """
    if b <= math.pi / 2:
        raise ValueError("Delta-wings need strip half-width b > pi/2")
    p = make_strip_problem(b, L, nx, ny, shrink=shrink)
    sol, report = newton_solve(p, initial_guess(p))
    report.asymptoteDefect = asymptote_defect(sol, p)
    return sol, report


def _resample_onto(p_new: StripProblem, sol: GridFunction) -> GridFunction:
    """Previous solution resampled as an initial guess on a new strip grid."""
    from scipy.interpolate import RegularGridInterpolator
    interp = RegularGridInterpolator((sol.xs, sol.ys), sol.values,
                                     bounds_error=False, fill_value=None)
    X, Y = np.meshgrid(p_new.xs, p_new.ys, indexing="ij")
    v = interp(np.stack([X.ravel(), Y.ravel()], axis=1)).reshape(X.shape)
    env = tilted_pair_envelope(p_new.b, X, Y)
    outside = np.abs(Y) > sol.ys[-1]
    v[outside] = env[outside]
    return _smoothed(p_new, v, 2)


def continuation_in_width(b_start: float, b_end: float, steps: int,
                          L: float = 12.0, nx: int = 241, ny: int = 81):
    """March the wing family in strip half-width, reusing each solution as the
    next initial guess.  Returns the list of (b, SolveReport); reports carry
    the map b -> k via their centerHessian.
    """
    if steps < 1:
        raise ValueError("continuation needs steps >= 1")
    if min(b_start, b_end) <= math.pi / 2:
        raise ValueError("continuation runs in b > pi/2")
    bs = np.linspace(b_start, b_end, steps + 1) if b_start != b_end \
        else np.array([b_start])
    out = []
    prev_b = None
    for bi in bs:
        p = make_strip_problem(float(bi), L, nx, ny)
        init = initial_guess(p) if prev_b is None else _resample_onto(p, sol)
        try:
            sol, rep = newton_solve(p, init)
        except (NewtonStalledError, MaxIterationsError):
            if prev_b is None:
                raise ContinuationBrokenError(f"first solve failed at b = {bi}")
            # retry through an intermediate half-step
            bmid = 0.5 * (prev_b + float(bi))
            try:
                pm = make_strip_problem(bmid, L, nx, ny)
                sol, _ = newton_solve(pm, _resample_onto(pm, sol))
                sol, rep = newton_solve(p, _resample_onto(p, sol))
            except (NewtonStalledError, MaxIterationsError) as exc:
                raise ContinuationBrokenError(
                    f"continuation failed at b = {bi}") from exc
        rep.asymptoteDefect = asymptote_defect(sol, p)
        out.append((float(bi), rep))
        prev_b = float(bi)
    return sol, out

"""Damped-Newton finite-difference solver for the translator equation on
truncated strips; computes numerical Delta-wings and width continuation.

Domain layout: x is the unbounded direction, truncated to [-L, L]; y is the
strip direction, truncated to [-SHRINK*b, SHRINK*b] so the tilted-grim-reaper
boundary data stays finite.  In the downward convention the wing is concave
with its maximum at the origin and is asymptotic, as |x| grows, to the two
tilted grim reapers with cos(theta) = pi / (2 b); the Dirichlet data is their
pointwise lower envelope sec^2(th) log cos(y cos th) - tan(th) |x|,
evaluated once per strip, the first time its bc is read.  StripProblem
refuses a strip before anything of its size is allocated.  newton_solve
builds the complete SolveReport in one call.  scipy.sparse is first
imported by newton_solve, after every check of the strip, and then by
_jacobian and _factor, which use it; importing this module or refusing a
strip loads none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import catalog
from .errors import TranslabError
from .geom import interior_jet
from .grid import GridFunction


@dataclass
class StripProblem:
    """Dirichlet problem for the translator equation on a truncated strip.

    bc holds the Dirichlet data on the outer node ring of the (nx, ny) grid.
    Its interior entries are the surface initial_guess smooths and
    asymptote_defect compares with.  Read first, it is the tilted-pair
    envelope on every node (b > pi/2); data assigned before that replaces it.
    """

    b: float
    L: float
    nx: int
    ny: int

    def __post_init__(self):
        if not 0 < self.b < math.inf:
            raise TranslabError(f"strip half-width b must be finite and "
                                f"positive, got {self.b}")
        if not 4 <= self.L < math.inf:
            raise TranslabError(f"truncation length L must be finite and >= 4, "
                                f"got {self.L}")
        if self.nx < 33 or self.ny < 33:
            raise TranslabError("resolution must be at least 33x33")
        if self.nx * self.ny > _MAX_NODES:
            raise TranslabError(f"strip grid of nx x ny = {self.nx} x {self.ny} = "
                                f"{self.nx * self.ny} nodes exceeds the bound of "
                                f"{_MAX_NODES} nodes")
        # The stencils divide by hx^2 and hy^2.  The Newton residual is the
        # curvature defect times W^3 >= sec^3(theta) on the flanks of the
        # tilted pair (cos(theta) = pi / (2 b)), and its norm squares that.
        sec2 = (2.0 * self.b / math.pi) * (2.0 * self.b / math.pi)
        if not (0 < self.hy * self.hy < math.inf
                and sec2 * sec2 * sec2 < math.inf):
            raise TranslabError(f"strip half-width b must keep hy^2 and "
                                f"sec^6(theta) finite and positive, got {self.b}")
        if not self.hx * self.hx < math.inf:
            raise TranslabError(f"truncation length L must keep hx^2 finite, "
                                f"got {self.L}")

    @cached_property
    def bc(self) -> np.ndarray:
        return tilted_pair_envelope(self.b, *np.meshgrid(self.xs, self.ys,
                                                         indexing="ij"))

    @property
    def hx(self) -> float:
        return 2.0 * self.L / (self.nx - 1)

    @property
    def hy(self) -> float:
        return 2.0 * SHRINK * self.b / (self.ny - 1)

    @property
    def xs(self) -> np.ndarray:
        return -self.L + self.hx * np.arange(self.nx)

    @property
    def ys(self) -> np.ndarray:
        return -SHRINK * self.b + self.hy * np.arange(self.ny)

    def grid(self, values: np.ndarray) -> GridFunction:
        return GridFunction(self.nx, self.ny, self.hx, self.hy,
                            -self.L, -SHRINK * self.b, values)


SHRINK = 0.995             # the strip is truncated to |y| <= SHRINK * b
TOL_RESIDUAL = 1e-9        # Newton converges at max |defect| <= this
MAX_NEWTON = 50            # ... or fails after this many iterations
DAMPING_MIN = 2.0 ** -10   # ... or stalls when backtracking goes below this

# Strip grid nodes (nx * ny).  delta-wing --b 2 (L = 12; one core, 2 vCPU
# x86) took 1.04 s and 135.9 MB peak RSS on 961x161 = 154,721 nodes and
# 4.85 s and 408.1 MB on 1921x321 = 616,641 nodes: 8.2 us and 618 B per
# added node.  At the bound that is about 8 s and 0.63 GB for one solve;
# --nx 100000000 --ny 33 would ask 24.6 GiB for its boundary data alone.
_MAX_NODES = 1_000_000
# Continuation steps.  continuation --b-start 2 --b-end 3 on the default
# 241x81 grid took 0.86 s at 8 steps and 2.14 s at 32, at 75.7 and 74.6 MB
# peak RSS: 53 ms per step, and a step keeps only its report.  At the bound
# that is about 1 min on the default grid.
_MAX_STEPS = 1_000


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
    rawResidualMax: float
    k: float                           # smaller |eigenvalue| of centerHessian
    asymptoteDefect: float             # asymptote_defect of the solution
    factorizations: int                # sparse LU factorizations computed
    luFill: int                        # nnz(L + U) of the last factorization
    defectHistory: list                # max |defect| per step


def tilted_pair_envelope(b: float, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pointwise lower envelope of the two tilted grim reapers over the strip.

    min(G_th, G_-th) = sec^2(th) log cos(y cos th) - tan(th) |x| with
    cos(th) = pi / (2 b); this is the surface the wing is asymptotic to on
    each side, so truncation error concentrates near the x = 0 crease.
    """
    if not math.pi / 2 < b < math.inf:
        raise TranslabError("tilted pair needs a finite b > pi/2")
    c = math.pi / (2.0 * b)
    if not c * c > 0 or math.isinf(1.0 / (c * c)):
        raise TranslabError(f"tilted pair needs a finite sec^2(theta), "
                            f"got b = {b}")
    theta = math.acos(c)
    sec2 = 1.0 / (c * c)
    return sec2 * np.log(np.cos(Y * c)) - math.tan(theta) * np.abs(X)


def _check_boundary(u: np.ndarray, p: StripProblem):
    same = (np.array_equal(u[0, :], p.bc[0, :])
            and np.array_equal(u[-1, :], p.bc[-1, :])
            and np.array_equal(u[:, 0], p.bc[:, 0])
            and np.array_equal(u[:, -1], p.bc[:, -1]))
    if not same:
        raise TranslabError("boundary rows do not hold the Dirichlet data")


def _residual(v: np.ndarray, hx: float, hy: float):
    """(jet, residual, defect) on the interior: the geometry module's jet,
    the translator residual of it, and the mean-curvature defect
    residual / W^3, which equals H + <e3, N> pointwise."""
    jet = p, q, r, s, t = interior_jet(v, hx, hy)
    res = catalog.pde_residual(v[1:-1, 1:-1], (p, q), (r, s, t))
    return jet, res, res / (1 + p * p + q * q) ** 1.5


def _fold_index(mi: int, mj: int) -> np.ndarray:
    """(mi, mj) array of the mirror fold of an mi x mj interior: each entry is
    the raveled index, in the quadrant i >= mi // 2, j >= mj // 2 (centre
    lines included), of that node's reflection (itself if it lies there)."""
    fi = np.maximum(np.arange(mi), np.arange(mi)[::-1]) - mi // 2
    fj = np.maximum(np.arange(mj), np.arange(mj)[::-1]) - mj // 2
    return fi[:, None] * (mj - mj // 2) + fj


def _jacobian(jet, hx: float, hy: float):
    """Analytic Jacobian of the interior residual, folded onto the quadrant,
    as a CSC matrix: row n is the quadrant node n, and each stencil
    neighbour's coefficient goes to the column of that neighbour's
    reflection (_fold_index), so the neighbours that reflect onto one column
    at the centre lines are summed.  jet is the interior jet (p, q, r, s, t)
    of the current iterate."""
    import scipy.sparse as sp

    mi, mj = jet[0].shape
    i0, j0 = mi // 2, mj // 2
    p, q, r, s, t = (a[i0:, j0:] for a in jet)
    # fold index of each neighbour; -1 past the quadrant's outer edge
    fold = np.full((mi + 1, mj + 1), -1)
    fold[:mi, :mj] = _fold_index(mi, mj)

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
    cols = np.stack([fold[i0 + di:mi + di, j0 + dj:mj + dj]
                     for di, dj in coefs])
    rows = np.broadcast_to(fold[i0:mi, j0:mj], cols.shape)
    inside = cols >= 0
    n = p.size
    J = sp.coo_matrix((np.stack(list(coefs.values()))[inside],
                       (rows[inside], cols[inside])), shape=(n, n)).tocsc()
    # Drop exact zeros, such as the -2pq entries on the centre lines of a
    # symmetric iterate: SuperLU's MMD_AT_PLUS_A ordering reads the stored
    # pattern, so a stored zero would move the solution's round-off.
    J.eliminate_zeros()
    return J


def _factor(J):
    """Sparse LU of the CSC matrix J under a minimum-degree ordering of
    J + J^T."""
    from scipy.sparse.linalg import splu

    try:
        return splu(J, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise TranslabError(str(exc)) from exc


def _check_mirror_symmetric(bc: np.ndarray):
    """Raise TranslabError unless the boundary data on the outer node ring equals
    its reflections about both midlines up to round-off."""
    ring = np.ones(bc.shape, dtype=bool)
    ring[1:-1, 1:-1] = False
    defect = float(np.max(np.maximum(np.abs(bc - bc[::-1, :]),
                                     np.abs(bc - bc[:, ::-1]))[ring]))
    tol = 1e-12 * max(1.0, float(np.max(np.abs(bc[ring]))))
    if defect > tol:
        raise TranslabError("boundary data is not symmetric about both midlines "
                            f"(defect {defect:.3e} > {tol:.3e})")


def _newton_step(lu, Jq, res: np.ndarray, fold: np.ndarray) -> np.ndarray:
    """Solve the folded system Jq dq = -res on the quadrant with the
    factorization lu, which may belong to an earlier iterate, plus one
    refinement pass against the current Jq; return the step dq[fold]
    unfolded onto the whole interior."""
    mi, mj = res.shape
    rhs = -res[mi // 2:, mj // 2:].ravel()
    delta = lu.solve(rhs)
    delta += lu.solve(rhs - Jq @ delta)
    if not np.all(np.isfinite(delta)):
        raise TranslabError("linear solve returned non-finite values")
    return delta[fold]


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
    quadrant of _fold_index: _jacobian assembles the quadrant rows with
    each neighbour's column folded onto its reflection, and the step
    dq[fold] keeps the iterate symmetric.  Residual and convergence test
    stay on the full grid.  Boundary data that is not mirror symmetric is
    refused.  A stall names the grid node (i, j) where |defect| peaks.
    Returns (solution, SolveReport); the report's asymptoteDefect is
    asymptote_defect(solution, p).
    """
    if init.values.shape != (p.nx, p.ny):
        raise TranslabError("initial guess does not match the problem grid")
    _check_boundary(init.values, p)
    _check_mirror_symmetric(p.bc)
    hx, hy = p.hx, p.hy
    v = init.values.copy()
    a = v[1:-1, 1:-1] + v[-2:0:-1, 1:-1]
    v[1:-1, 1:-1] = 0.25 * (a + a[:, ::-1])
    fold = _fold_index(p.nx - 2, p.ny - 2)
    damping_history, defect_history = [], []
    lu, factorizations = None, 0

    with np.errstate(over="ignore", invalid="ignore"):
        jet, res, defect = _residual(v, hx, hy)
        fnorm = float(np.linalg.norm(defect))
        w3 = np.max(1.0 + jet[0] * jet[0] + jet[1] * jet[1]) ** 1.5
    if not math.isfinite(fnorm):
        raise TranslabError(f"the defect of the initial guess is not finite "
                            f"(||defect||_2 = {fnorm})")
    # where W^3 overflows the defect reads 0 whatever the residual: on a
    # 33x33 strip at b = 2 the smoothed guess gets there from L ~ 1e104
    if not w3 < math.inf:
        raise TranslabError(f"truncation length L = {p.L!r} is too long for "
                            f"the {p.nx} x {p.ny} grid: the initial guess's "
                            f"W^3 overflows")
    # Every check has passed: load the sparse LU here, before the loop's
    # first temporaries, which keeps perfbench wing's peak RSS at 87.0 MB;
    # loaded between them, in the first _jacobian, it read 89-92.5 MB.
    import scipy.sparse.linalg  # noqa: F401
    iterations = 0
    for it in range(MAX_NEWTON):
        if np.max(np.abs(defect)) <= TOL_RESIDUAL:
            break
        Jq = _jacobian(jet, hx, hy)
        fresh = it % 2 == 0
        if fresh:
            lu = None                   # release the old LU before the new one
            lu = _factor(Jq)
            factorizations += 1
        delta = _newton_step(lu, Jq, res, fold)

        lam = 1.0
        while True:
            trial = v.copy()
            trial[1:-1, 1:-1] += lam * delta
            with np.errstate(over="ignore", invalid="ignore"):
                # a step that overflows is refused below, like any other
                tjet, tres, tdef = _residual(trial, hx, hy)
                tnorm = float(np.linalg.norm(tdef))
            if np.isfinite(tnorm) and tnorm <= (1.0 - 1e-4 * lam) * fnorm:
                break
            if not fresh:               # reused LU: refactor, retake the step
                lu = None
                lu = _factor(Jq)
                factorizations += 1
                fresh = True
                delta = _newton_step(lu, Jq, res, fold)
                continue
            lam *= 0.5
            if lam < DAMPING_MIN:
                i, j = np.unravel_index(np.argmax(np.abs(defect)), defect.shape)
                ring = i in (0, p.nx - 3) or j in (0, p.ny - 3)
                raise TranslabError(
                    f"damping floor hit at iteration {it}, ||defect||_2 = "
                    f"{fnorm:.3e}, max |defect| {np.abs(defect[i, j]):.3e} at "
                    f"node ({i + 1}, {j + 1}), "
                    + ("on" if ring else "inside") + " the outer interior ring")
        damping_history.append(lam)
        v, jet, res, defect, fnorm = trial, tjet, tres, tdef, tnorm
        defect_history.append(float(np.max(np.abs(defect))))
        iterations = it + 1
    else:
        if np.max(np.abs(defect)) > TOL_RESIDUAL:
            raise TranslabError(
                f"no convergence in {MAX_NEWTON} Newton iterations")

    sol = p.grid(v)
    gp, gq, r, s, t = jet
    # D^2 u at the node nearest the origin (interior index = node index - 1)
    ic = int(np.argmin(np.abs(p.xs))) - 1
    jc = int(np.argmin(np.abs(p.ys))) - 1
    center_hessian = np.array([[r[ic, jc], s[ic, jc]], [s[ic, jc], t[ic, jc]]])

    # concavity over all interior nodes: largest eigenvalue of D^2 u
    lam_max = 0.5 * (r + t) + np.sqrt(0.25 * (r - t) ** 2 + s * s)
    scale = max(np.max(np.abs(r)), np.max(np.abs(t)), np.max(np.abs(s)))

    # boundary-gradient proxy on the outermost interior ring
    gmag = np.sqrt(gp * gp + gq * gq)
    ring = np.ones_like(gmag, dtype=bool)
    ring[1:-1, 1:-1] = False

    return sol, SolveReport(
        iterations=iterations, finalResidualMax=float(np.max(np.abs(defect))),
        dampingHistory=damping_history, centerHessian=center_hessian,
        concaveFlag=bool(np.max(lam_max) <= 1e-6 * scale),
        symmetryDefect=max(float(np.max(np.abs(v - v[::-1, :]))),
                           float(np.max(np.abs(v - v[:, ::-1])))),
        maxBoundaryGradient=float(np.max(gmag[ring])),
        rawResidualMax=float(np.max(np.abs(res))),
        k=float(np.min(np.abs(np.linalg.eigvalsh(center_hessian)))),
        asymptoteDefect=asymptote_defect(sol, p), factorizations=factorizations,
        luFill=0 if lu is None else int(lu.nnz), defectHistory=defect_history)


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
    """Smoothed data: five Jacobi sweeps of p.bc (unless assigned, the
    envelope) round the crease along x = 0."""
    return _smoothed(p, p.bc.copy(), 5)


def asymptote_defect(sol: GridFunction, p: StripProblem) -> float:
    """Defect against p.bc near the ends of the box; unless assigned, that
    is the envelope, the tilted reapers the wing approaches there.

    For each side the comparison surface is aligned by the best constant
    shift (midrange of the difference); the bands cover interior nodes with
    |x| in [0.85, 1] * L.
    """
    xs = p.xs[1:-1]
    gap = sol.values[1:-1, 1:-1] - p.bc[1:-1, 1:-1]
    worst = 0.0
    for sgn in (+1, -1):
        diff = gap[(sgn * xs >= 0.85 * p.L) & (sgn * xs <= p.L)]
        shift = 0.5 * (float(np.max(diff)) + float(np.min(diff)))
        worst = max(worst, float(np.max(np.abs(diff - shift))))
    return worst


def delta_wing(b: float, L: float = 12.0, nx: int = 961, ny: int = 161):
    """Solve for the Delta-wing over the strip of half-width b (> pi/2).

    Boundary data and initial guess come from the tilted-pair envelope with
    cos(theta) = pi/(2 b).  One Newton solve, no retry: its TranslabError
    is the caller's.  The report carries the center Hessian (expected
    eigenvalues (-k, -(1-k))), concavity and symmetry checks, and the
    constant-shift defect against the asymptotic reapers.
    """
    if b <= math.pi / 2:
        raise TranslabError("Delta-wings need strip half-width b > pi/2")
    p = StripProblem(b, L, nx, ny)
    return newton_solve(p, initial_guess(p))


def _resample_onto(p_new: StripProblem, sol: GridFunction) -> GridFunction:
    """Previous solution as the initial guess on a new strip: continuation
    keeps L and nx, so the grids share their x nodes and each x row is
    interpolated linearly in y; nodes beyond the old strip take p_new.bc."""
    v = np.array([np.interp(p_new.ys, sol.ys, row) for row in sol.values])
    outside = np.abs(p_new.ys) > sol.ys[-1]
    v[:, outside] = p_new.bc[:, outside]
    return _smoothed(p_new, v, 2)


def continuation_in_width(b_start: float, b_end: float, steps: int,
                          L: float = 12.0, nx: int = 241, ny: int = 81):
    """March the wing family in strip half-width, reusing each solution as the
    next initial guess.  Returns the list of (b, SolveReport); reports carry
    the map b -> k via their centerHessian.  A strip solve that fails, the
    first included, ends the march in one TranslabError that names its b
    and carries the solver's reason; a stall between widths wants more steps.
    """
    if steps < 1:
        raise TranslabError("continuation needs steps >= 1")
    if steps > _MAX_STEPS:
        raise TranslabError(f"continuation of steps = {steps} exceeds the bound "
                            f"of {_MAX_STEPS} steps")
    for name, b in (("b_start", b_start), ("b_end", b_end)):
        if not math.isfinite(b):
            raise TranslabError(f"continuation {name} must be finite, got {b}")
    if min(b_start, b_end) <= math.pi / 2:
        raise TranslabError("continuation runs in b > pi/2")
    # the widest strip is refused before any solve, not after the others
    StripProblem(max(b_start, b_end), L, nx, ny)
    bs = np.linspace(b_start, b_end, steps + 1) if b_start != b_end \
        else np.array([b_start])
    out, sol = [], None
    for bi in bs:
        p = StripProblem(float(bi), L, nx, ny)
        init = initial_guess(p) if sol is None else _resample_onto(p, sol)
        try:
            sol, rep = newton_solve(p, init)
        except TranslabError as exc:
            raise TranslabError(
                f"continuation failed at b = {bi}: {exc}") from exc
        out.append((float(bi), rep))
    return sol, out

import json
import math

import numpy as np
import pytest
import scipy.sparse as sp

from translab import cli, elliptic, geom
from translab.elliptic import (DAMPING_MIN, MAX_NEWTON, TOL_RESIDUAL,
                               StripProblem, delta_wing, initial_guess,
                               make_strip_problem, newton_solve)
from translab.errors import (LinearSolveFailureError, NewtonStalledError,
                             ShapeMismatchError)

B_ROOT2 = math.pi / math.sqrt(2)


def grim_strip_problem(nx=121, ny=65, L=6.0, b=math.pi / 2 * 0.94):
    p = StripProblem(b=b, L=L, shrink=0.995, nx=nx, ny=ny,
                     bc=np.zeros((nx, ny)))
    X, Y = np.meshgrid(p.xs, p.ys, indexing="ij")
    p.bc = np.log(np.cos(Y))
    return p, np.log(np.cos(Y))


def test_zero_height_residual_is_one():
    p = make_strip_problem(2.0, 6.0, 41, 41)
    p.bc = np.zeros((41, 41))
    u = p.grid(np.zeros((41, 41)))
    res = elliptic.assemble_residual(u, p)
    assert np.all(res == 1.0)


def test_residual_requires_matching_boundary():
    p = make_strip_problem(2.0, 6.0, 41, 41)
    u = p.grid(np.zeros((41, 41)))
    with pytest.raises(ShapeMismatchError):
        elliptic.assemble_residual(u, p)


def test_residual_second_order_on_grim_data():
    maxima = []
    for nx, ny in ((121, 65), (241, 129)):
        p, vals = grim_strip_problem(nx, ny)
        res = elliptic.assemble_residual(p.grid(vals), p)
        # fixed subregion: next to the strip edge the first interior node
        # drifts with h and the truncation constant varies too fast there
        Y = np.meshgrid(p.xs, p.ys, indexing="ij")[1][1:-1, 1:-1]
        maxima.append(np.max(np.abs(res[np.abs(Y) <= 1.3])))
    assert 3.0 <= maxima[0] / maxima[1] <= 5.0


def test_jacobian_matches_finite_differences():
    nx, ny = 12, 10
    hx, hy = 0.11, 0.13
    X, Y = np.meshgrid(np.arange(nx) * hx, np.arange(ny) * hy, indexing="ij")
    v = 0.3 * np.sin(1.7 * X) * np.cos(2.3 * Y) + 0.1 * X * Y
    J = elliptic._jacobian(geom.interior_jet(v, hx, hy), hx, hy,
                           elliptic._jacobian_pattern(nx - 2, ny - 2)).toarray()
    eps = 1e-7
    for i in range(1, nx - 1):
        for j in range(1, ny - 1):
            vp, vm = v.copy(), v.copy()
            vp[i, j] += eps
            vm[i, j] -= eps
            col = (elliptic._residual(vp, hx, hy)[1]
                   - elliptic._residual(vm, hx, hy)[1]).ravel() / (2 * eps)
            assert np.max(np.abs(J[:, (i - 1) * (ny - 2) + (j - 1)] - col)) < 1e-5


def coo_jacobian(jet, hx, hy):
    """The Jacobian as a COO triplet build, converted to CSC: the reference
    the fixed-pattern assembly must reproduce bit for bit."""
    p, q, r, s, t = jet
    mi, mj = p.shape
    Ap = -2 * q * s + 2 * p * t + 2 * p
    Aq = 2 * q * r - 2 * p * s + 2 * q
    Ar = 1 + q * q
    As = -2 * p * q
    At = 1 + p * p
    I, J = np.meshgrid(np.arange(mi), np.arange(mj), indexing="ij")
    row = (I * mj + J).ravel()
    offsets = [
        (+1, 0, Ap / (2 * hx) + Ar / (hx * hx)),
        (-1, 0, -Ap / (2 * hx) + Ar / (hx * hx)),
        (0, +1, Aq / (2 * hy) + At / (hy * hy)),
        (0, -1, -Aq / (2 * hy) + At / (hy * hy)),
        (0, 0, -2 * Ar / (hx * hx) - 2 * At / (hy * hy)),
        (+1, +1, As / (4 * hx * hy)),
        (-1, -1, As / (4 * hx * hy)),
        (+1, -1, -As / (4 * hx * hy)),
        (-1, +1, -As / (4 * hx * hy)),
    ]
    rows, cols, vals = [], [], []
    for di, dj, coef in offsets:
        ii, jj = I + di, J + dj
        inside = ((ii >= 0) & (ii < mi) & (jj >= 0) & (jj < mj)).ravel()
        rows.append(row[inside])
        cols.append((ii * mj + jj).ravel()[inside])
        vals.append(coef.ravel()[inside])
    n = mi * mj
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsc()


@pytest.mark.parametrize("nx, ny", [(121, 41), (321, 161)])
def test_jacobian_pattern_matches_coo_build(nx, ny):
    p = make_strip_problem(B_ROOT2, 12.0, nx, ny)
    jet = geom.interior_jet(initial_guess(p).values, p.hx, p.hy)
    ref = coo_jacobian(jet, p.hx, p.hy)
    J = elliptic._jacobian(jet, p.hx, p.hy,
                           elliptic._jacobian_pattern(nx - 2, ny - 2))
    assert J.format == "csc"
    assert np.array_equal(J.indptr, ref.indptr)
    assert np.array_equal(J.indices, ref.indices)
    assert np.array_equal(J.data, ref.data)


def test_newton_factors_on_even_steps_only():
    # steps 0, 2, 4, ... factor; odd steps reuse that LU (no guard fires here)
    sol, rep = delta_wing(2.0, L=8.0, nx=121, ny=49)
    assert rep.dampingHistory == [1.0] * rep.iterations
    assert rep.iterations >= 2
    assert rep.factorizations == math.ceil(rep.iterations / 2)
    assert len(rep.defectHistory) == rep.iterations
    assert rep.defectHistory[-1] == rep.finalResidualMax
    assert rep.defectHistory[-1] <= TOL_RESIDUAL
    assert rep.luFill > sol.values.size


def test_reused_lu_step_failing_armijo_is_refactored(monkeypatch):
    # the first trial of step 1, the first step on a reused LU, is made to
    # fail the Armijo test: the step is retaken from a fresh LU, undamped
    p = make_strip_problem(2.0, 8.0, 121, 49)
    _, plain = newton_solve(p, initial_guess(p))
    residual = elliptic._residual
    calls = []

    def failing_once(v, hx, hy):
        jet, res, defect = residual(v, hx, hy)
        calls.append(None)
        # call 0: initial iterate; call 1: step 0's trial; call 2: step 1's
        if len(calls) == 3:
            defect = np.full_like(defect, np.nan)
        return jet, res, defect
    monkeypatch.setattr(elliptic, "_residual", failing_once)
    _, rep = newton_solve(p, initial_guess(p))
    assert plain.dampingHistory == [1.0] * plain.iterations
    assert rep.dampingHistory == [1.0] * rep.iterations
    assert plain.factorizations == math.ceil(plain.iterations / 2)
    assert rep.factorizations == math.ceil(rep.iterations / 2) + 1


@pytest.mark.parametrize("extra_cols, error", [(0, LinearSolveFailureError),
                                                (1, ValueError)])
def test_only_a_singular_factor_is_a_linear_solve_failure(monkeypatch,
                                                          extra_cols, error):
    # an exactly singular J is a numerical failure; a malformed J is a
    # programming error and must surface as itself
    monkeypatch.setattr(elliptic, "_jacobian", lambda jet, hx, hy, pattern:
                        sp.csc_matrix((jet[0].size, jet[0].size + extra_cols)))
    p = make_strip_problem(2.0, 8.0, 41, 41)
    with pytest.raises(error) as info:
        newton_solve(p, initial_guess(p))
    assert type(info.value) is error


def test_cli_delta_wing_reruns_byte_identical(tmp_path):
    out, report = tmp_path / "wing.csv", tmp_path / "wing.json"
    argv = ["elliptic", "delta-wing", "--b", "2.0", "--L", "8", "--nx", "81",
            "--ny", "41", "--out", str(out), "--report", str(report)]
    runs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        runs.append((out.read_bytes(), report.read_bytes()))
    assert runs[0] == runs[1]
    rep = json.loads(runs[0][1])
    assert rep["factorizations"] == math.ceil(rep["iterations"] / 2)
    assert rep["luFill"] > 0
    assert len(rep["defectHistory"]) == rep["iterations"]


def test_newton_residual_is_assemble_residual(monkeypatch):
    # the residual Newton iterates on, at the solution it returns, is
    # assemble_residual's bit for bit (one jet, one residual)
    p, vals = grim_strip_problem()
    vals[1:-1, 1:-1] += 1e-3 * np.cos(np.linspace(0, 3, 119))[:, None]
    seen = []
    residual = elliptic._residual

    def recording(v, hx, hy):
        out = residual(v, hx, hy)
        seen.append((v.copy(), out[1]))
        return out
    monkeypatch.setattr(elliptic, "_residual", recording)
    sol, rep = newton_solve(p, p.grid(vals))
    assert rep.iterations >= 1
    newton_res = [res for v, res in seen if np.array_equal(v, sol.values)][-1]
    monkeypatch.undo()
    res = elliptic.assemble_residual(sol, p)
    assert np.array_equal(newton_res, res)
    assert rep.rawResidualMax == float(np.max(np.abs(res)))


def test_center_hessian_is_the_jet_at_the_center():
    sol, rep = delta_wing(2.0, L=8.0, nx=121, ny=49)
    _, _, r, s, t = geom.grid_jet(sol)
    ic = int(np.argmin(np.abs(sol.xs)))
    jc = int(np.argmin(np.abs(sol.ys)))
    assert np.array_equal(rep.centerHessian, [[r[ic, jc], s[ic, jc]],
                                              [s[ic, jc], t[ic, jc]]])


def test_newton_from_near_exact_data():
    p, vals = grim_strip_problem()
    sol, rep = newton_solve(p, p.grid(vals))
    assert rep.iterations <= 3
    assert rep.finalResidualMax <= 1e-9


def test_delta_wing_small_grid():
    sol, rep = delta_wing(B_ROOT2, L=12.0, nx=241, ny=41)
    assert rep.iterations <= 30
    assert rep.finalResidualMax <= 1e-9
    assert rep.symmetryDefect <= 1e-8
    assert 0.0 < rep.k <= 0.5 + 1e-6
    # interior maximum forces uxx + uyy = -1 through the discrete equation
    assert abs(np.trace(rep.centerHessian) + 1.0) < 1e-6
    eigs = np.linalg.eigvalsh(rep.centerHessian)
    assert np.all(eigs < 0)


def test_near_threshold_wing_is_grim_reaper_like():
    sol, rep = delta_wing(math.pi / 2 + 1e-3, L=8.0, nx=321, ny=129)
    assert rep.finalResidualMax <= 1e-9
    assert rep.k < 0.02


def test_near_threshold_stall_raises_without_retry(monkeypatch):
    # on a coarse grid next to b = pi/2 the direct solve stalls; the error is
    # the solver's own, after exactly one solve at the b that was asked for
    solve, strips = elliptic.newton_solve, []
    monkeypatch.setattr(elliptic, "newton_solve",
                        lambda p, init: strips.append(p.b) or solve(p, init))
    b = math.pi / 2 + 1e-3
    with pytest.raises(NewtonStalledError, match="damping floor"):
        delta_wing(b, L=12.0, nx=41, ny=33)
    assert strips == [b]


def test_delta_wing_requires_wide_strip():
    with pytest.raises(ValueError):
        delta_wing(math.pi / 2 * 0.8, L=8.0, nx=121, ny=49)


def test_continuation_matches_single_solve_and_records_k():
    sol_c, reports = elliptic.continuation_in_width(2.0, 2.0, 1, L=8.0,
                                                    nx=121, ny=49)
    sol_w, _ = delta_wing(2.0, L=8.0, nx=121, ny=49)
    assert np.array_equal(sol_c.values, sol_w.values)

    _, chain = elliptic.continuation_in_width(2.0, 3.0, 4, L=8.0, nx=161, ny=65)
    ks = [r.k for _, r in chain]
    assert all(r.finalResidualMax <= 1e-9 for _, r in chain)
    # empirical direction: k grows with b toward the bowl value 1/2
    # (recorded, not asserted as a theorem)
    assert all(np.isfinite(ks))
    assert len(ks) == 5


def test_continuation_argument_guards():
    with pytest.raises(ValueError):
        elliptic.continuation_in_width(2.0, 3.0, 0)
    with pytest.raises(ValueError):
        elliptic.continuation_in_width(1.0, 3.0, 2)


def test_strip_problem_invariants():
    with pytest.raises(ValueError):
        make_strip_problem(2.0, 3.0, 41, 41)            # L < 4
    with pytest.raises(ValueError):
        make_strip_problem(2.0, 6.0, 21, 41)            # resolution
    with pytest.raises(ValueError):
        StripProblem(b=2.0, L=6.0, shrink=0.8, nx=41, ny=41,
                     bc=np.zeros((41, 41)))             # shrink range


def full_grid_newton(p, init):
    """The Newton iteration with every linear system on the whole interior,
    no fold and no symmetrization of init: the reference the quadrant solve
    must reproduce.  Returns (values, iterations, factorizations)."""
    hx, hy = p.hx, p.hy
    v = init.values.copy()
    pattern = elliptic._jacobian_pattern(p.nx - 2, p.ny - 2)
    jet, res, defect = elliptic._residual(v, hx, hy)
    fnorm = float(np.linalg.norm(defect))
    lu, factorizations, iterations = None, 0, 0

    def step(J):
        rhs = -res.ravel()
        delta = lu.solve(rhs)
        delta += lu.solve(rhs - J @ delta)
        return delta.reshape(res.shape)
    for it in range(MAX_NEWTON):
        if np.max(np.abs(defect)) <= TOL_RESIDUAL:
            break
        J = elliptic._jacobian(jet, hx, hy, pattern)
        fresh = it % 2 == 0
        if fresh:
            lu = elliptic._factor(J)
            factorizations += 1
        delta = step(J)
        lam = 1.0
        while True:
            trial = v.copy()
            trial[1:-1, 1:-1] += lam * delta
            tjet, tres, tdef = elliptic._residual(trial, hx, hy)
            tnorm = float(np.linalg.norm(tdef))
            if np.isfinite(tnorm) and tnorm <= (1.0 - 1e-4 * lam) * fnorm:
                break
            if not fresh:
                lu = elliptic._factor(J)
                factorizations += 1
                fresh = True
                delta = step(J)
                continue
            lam *= 0.5
            assert lam >= DAMPING_MIN
        v, jet, res, defect, fnorm = trial, tjet, tres, tdef, tnorm
        iterations = it + 1
    assert np.max(np.abs(defect)) <= TOL_RESIDUAL
    return v, iterations, factorizations


@pytest.mark.parametrize("nx, ny", [(121, 41), (120, 40)])
def test_quadrant_solve_matches_full_grid_reference(nx, ny):
    # odd grids fold onto their centre lines, even grids have none
    p = make_strip_problem(B_ROOT2, 12.0, nx, ny)
    ref, iterations, factorizations = full_grid_newton(p, initial_guess(p))
    sol, rep = newton_solve(p, initial_guess(p))
    assert np.max(np.abs(sol.values - ref)) <= 1e-10
    assert (rep.iterations, rep.factorizations) == (iterations, factorizations)
    gp, gq, _, _, _ = geom.interior_jet(sol.values, p.hx, p.hy)
    defect = elliptic.assemble_residual(sol, p) / (1 + gp * gp + gq * gq) ** 1.5
    assert np.max(np.abs(defect)) <= TOL_RESIDUAL


def test_quadrant_fold_maps_each_node_to_its_reflection():
    for mi, mj in ((5, 4), (4, 5)):
        rows, P = elliptic._quadrant_fold(mi, mj)
        q = np.arange(len(rows), dtype=float)
        full = (P @ q).reshape(mi, mj)
        assert np.array_equal(full, full[::-1, :])
        assert np.array_equal(full, full[:, ::-1])
        assert np.array_equal(full.ravel()[rows], q)


def test_asymmetric_boundary_data_is_refused_before_factoring(monkeypatch):
    p = make_strip_problem(2.0, 8.0, 121, 49)
    p.bc[:, -1] += 1e-6 * p.xs          # tilted on one edge only
    init = p.grid(p.bc.copy())
    factored = []
    monkeypatch.setattr(elliptic, "_factor",
                        lambda J: factored.append(J) or pytest.fail("factored"))
    with pytest.raises(ValueError, match="symmetric"):
        newton_solve(p, init)
    assert factored == []


def test_asymmetric_init_converges_to_the_symmetric_solution():
    # the x-perturbed init of test_newton_residual_is_assemble_residual
    p, vals = grim_strip_problem()
    perturbed = vals.copy()
    perturbed[1:-1, 1:-1] += 1e-3 * np.cos(np.linspace(0, 3, 119))[:, None]
    assert np.max(np.abs(perturbed - perturbed[::-1, :])) > 1e-4
    sol_p, _ = newton_solve(p, p.grid(perturbed))
    sol, _ = newton_solve(p, p.grid(vals))
    assert np.max(np.abs(sol_p.values - sol.values)) <= 1e-10

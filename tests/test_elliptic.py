import json
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from translab import cli, elliptic, geom
from translab.elliptic import (DAMPING_MIN, MAX_NEWTON, TOL_RESIDUAL,
                               StripProblem, delta_wing, initial_guess,
                               newton_solve)
from translab.errors import TranslabError

B_ROOT2 = math.pi / math.sqrt(2)


def grim_strip_problem(nx=121, ny=65, L=6.0, b=math.pi / 2 * 0.94):
    p = StripProblem(b=b, L=L, nx=nx, ny=ny)
    X, Y = np.meshgrid(p.xs, p.ys, indexing="ij")
    p.bc = np.log(np.cos(Y))
    return p, np.log(np.cos(Y))


def test_zero_height_residual_is_one():
    p = StripProblem(2.0, 6.0, 41, 41)
    p.bc = np.zeros((41, 41))
    u = p.grid(np.zeros((41, 41)))
    res = oracles.residual_field(u)[1:-1, 1:-1]
    assert np.all(res == 1.0)


def test_residual_requires_matching_boundary():
    p = StripProblem(2.0, 6.0, 41, 41)
    u = p.grid(np.zeros((41, 41)))
    with pytest.raises(TranslabError, match="boundary rows do not hold the Dirichlet data"):
        newton_solve(p, u)


def test_residual_second_order_on_grim_data():
    maxima = []
    for nx, ny in ((121, 65), (241, 129)):
        p, vals = grim_strip_problem(nx, ny)
        res = oracles.residual_field(p.grid(vals))[1:-1, 1:-1]
        # fixed subregion: next to the strip edge the first interior node
        # drifts with h and the truncation constant varies too fast there
        Y = np.meshgrid(p.xs, p.ys, indexing="ij")[1][1:-1, 1:-1]
        maxima.append(np.max(np.abs(res[np.abs(Y) <= 1.3])))
    assert 3.0 <= maxima[0] / maxima[1] <= 5.0


def test_jacobian_matches_finite_differences():
    # column c of the folded Jacobian is the derivative of the quadrant rows
    # of the residual under the mirror-symmetric perturbation of every node
    # that folds onto c (odd interiors have centre lines, even ones do not)
    hx, hy = 0.11, 0.13
    eps = 1e-7
    for nx, ny in ((13, 11), (12, 10)):
        X, Y = np.meshgrid(np.arange(nx) * hx, np.arange(ny) * hy,
                           indexing="ij")
        v = 0.3 * np.sin(1.7 * X) * np.cos(2.3 * Y) + 0.1 * X * Y
        J = elliptic._jacobian(geom.interior_jet(v, hx, hy), hx, hy).toarray()
        fold = elliptic._fold_index(nx - 2, ny - 2)
        i0, j0 = (nx - 2) // 2, (ny - 2) // 2
        assert J.shape == (fold.max() + 1,) * 2
        for c in range(J.shape[1]):
            vp, vm = v.copy(), v.copy()
            vp[1:-1, 1:-1][fold == c] += eps
            vm[1:-1, 1:-1][fold == c] -= eps
            col = (elliptic._residual(vp, hx, hy)[1]
                   - elliptic._residual(vm, hx, hy)[1])[i0:, j0:] / (2 * eps)
            assert np.max(np.abs(J[:, c] - col.ravel())) < 1e-5


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


def quadrant_fold(mi, mj):
    """(rows, P) of the mirror fold: the raveled interior indices of the
    quadrant i >= mi // 2, j >= mj // 2 and the 0/1 unfold matrix mapping
    each interior node to its reflection there.  The solver once formed
    (J[rows] @ P) from the full-interior Jacobian; kept as the reference."""
    i0, j0 = mi // 2, mj // 2
    fi = np.maximum(np.arange(mi), np.arange(mi)[::-1]) - i0
    fj = np.maximum(np.arange(mj), np.arange(mj)[::-1]) - j0
    cols = (fi[:, None] * (mj - j0) + fj).ravel()
    n = mi * mj
    P = sp.csr_matrix((np.ones(n), cols, np.arange(n + 1)),
                      shape=(n, (mi - i0) * (mj - j0)))
    I, J = np.meshgrid(np.arange(i0, mi), np.arange(j0, mj), indexing="ij")
    return (I * mj + J).ravel(), P


@pytest.mark.parametrize("nx, ny, ulps", [(121, 41, 0), (321, 161, 0),
                                          (120, 40, 4)],
                         ids=["121-41", "321-161", "120-40"])
def test_jacobian_matches_folded_coo_reference(nx, ny, ulps):
    # the direct quadrant assembly equals the full-interior Jacobian folded
    # by the unfold matrix, on the bit-symmetric iterate Newton starts from;
    # on even grids four entries meet at the quadrant corner and their sum
    # may round in another order
    p = StripProblem(B_ROOT2, 12.0, nx, ny)
    v = initial_guess(p).values
    a = v[1:-1, 1:-1] + v[-2:0:-1, 1:-1]
    v[1:-1, 1:-1] = 0.25 * (a + a[:, ::-1])
    jet = geom.interior_jet(v, p.hx, p.hy)
    rows, P = quadrant_fold(nx - 2, ny - 2)
    ref = (coo_jacobian(jet, p.hx, p.hy)[rows] @ P).tocsc()
    ref.sort_indices()       # the product stores each column's rows unsorted
    J = elliptic._jacobian(jet, p.hx, p.hy)
    assert J.format == "csc"
    assert J.shape == ((nx - 2 - (nx - 2) // 2) * (ny - 2 - (ny - 2) // 2),) * 2
    assert np.array_equal(J.indptr, ref.indptr)
    assert np.array_equal(J.indices, ref.indices)
    gap = np.abs(J.data - ref.data)
    assert np.all(gap <= ulps * np.spacing(np.abs(ref.data)))


def test_newton_solve_reports_the_asymptote_defect():
    # newton_solve builds the whole report; asymptoteDefect used to stay NaN
    # until delta_wing or continuation_in_width set it
    p = StripProblem(2.0, 8.0, 121, 49)
    sol, rep = newton_solve(p, initial_guess(p))
    assert math.isfinite(rep.asymptoteDefect)
    assert rep.asymptoteDefect == elliptic.asymptote_defect(sol, p)


def envelope_asymptote_defect(v, p):
    """asymptote_defect as it was when it evaluated the envelope itself;
    kept as the reference."""
    X, Y = np.meshgrid(p.xs, p.ys, indexing="ij")
    reaper = elliptic.tilted_pair_envelope(p.b, X, Y)
    worst = 0.0
    for sgn in (+1, -1):
        sel = (sgn * X >= 0.85 * p.L) & (sgn * X <= p.L)
        sel[0, :] = sel[-1, :] = False
        sel[:, 0] = sel[:, -1] = False
        diff = (v - reaper)[sel]
        shift = 0.5 * (float(np.max(diff)) + float(np.min(diff)))
        worst = max(worst, float(np.max(np.abs(diff - shift))))
    return worst


@pytest.mark.parametrize("nx, ny", [(121, 41), (120, 40)])
def test_strip_envelope_is_evaluated_once(nx, ny):
    # initial_guess and asymptote_defect read the envelope from p.bc, bit
    # for bit what they got when each evaluated it again
    p = StripProblem(B_ROOT2, 12.0, nx, ny)
    X, Y = np.meshgrid(p.xs, p.ys, indexing="ij")
    env = elliptic.tilted_pair_envelope(p.b, X, Y)
    guess = initial_guess(p)
    assert np.array_equal(guess.values,
                          elliptic._smoothed(p, env, 5).values)
    v = guess.values + 1e-3 * np.sin(X) * np.cos(Y)
    assert elliptic.asymptote_defect(p.grid(v), p) == \
        envelope_asymptote_defect(v, p) > 0.0


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
    p = StripProblem(2.0, 8.0, 121, 49)
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


@pytest.mark.parametrize("extra_cols, error", [(0, TranslabError),
                                                (1, ValueError)])
def test_only_a_singular_factor_is_a_linear_solve_failure(monkeypatch,
                                                          extra_cols, error):
    # an exactly singular J is a numerical failure; a malformed J is a
    # programming error and must surface as itself
    monkeypatch.setattr(elliptic, "_jacobian", lambda jet, hx, hy:
                        sp.csc_matrix((jet[0].size, jet[0].size + extra_cols)))
    p = StripProblem(2.0, 8.0, 41, 41)
    match = "exactly singular" if error is TranslabError else None
    with pytest.raises(error, match=match) as info:
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


def test_newton_residual_is_the_catalog_residual(monkeypatch):
    # the residual Newton iterates on, at the solution it returns, is the
    # catalog residual's bit for bit (one jet, one residual)
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
    res = oracles.residual_field(sol)[1:-1, 1:-1]
    assert np.array_equal(newton_res, res)
    assert rep.rawResidualMax == float(np.max(np.abs(res)))


def test_center_hessian_is_the_jet_at_the_center():
    sol, rep = delta_wing(2.0, L=8.0, nx=121, ny=49)
    _, _, r, s, t = geom.interior_jet(sol.values, sol.hx, sol.hy)
    # the jet's index (i, j) is the node (i + 1, j + 1)
    ic = int(np.argmin(np.abs(sol.xs))) - 1
    jc = int(np.argmin(np.abs(sol.ys))) - 1
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
    strips = recording_newton(monkeypatch)
    b = math.pi / 2 + 1e-3
    # the defect peaks next to the end x = -L or its mirror x = L, on one of
    # the four mirror nodes (which one is round-off)
    with pytest.raises(TranslabError,
                       match=r"damping floor .*\|\|defect\|\|_2 = .* at node "
                             r"\((1|39), (2|30)\), on the outer interior ring$"):
        delta_wing(b, L=12.0, nx=41, ny=33)
    assert strips == [b]


def test_iteration_budget_exhausted_raises(monkeypatch):
    monkeypatch.setattr(elliptic, "MAX_NEWTON", 1)
    with pytest.raises(TranslabError, match="no convergence in 1 Newton"):
        delta_wing(2.0, L=8.0, nx=121, ny=49)


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


def recording_newton(monkeypatch):
    """Record the b of every newton_solve call made through the module."""
    solve, strips = elliptic.newton_solve, []
    monkeypatch.setattr(elliptic, "newton_solve",
                        lambda p, init: strips.append(p.b) or solve(p, init))
    return strips


def test_continuation_where_a_stride_stalls_takes_more_steps(monkeypatch,
                                                               capsys):
    # a stride of 2 stalls at b = 4 and ends the march; strides of 1 reach
    # b = 6 with one solve per width
    argv = ["elliptic", "continuation", "--b-start", "2", "--b-end", "6",
            "--nx", "121", "--ny", "41", "--steps"]
    assert cli.main(argv + ["2"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: continuation failed at b = 4.0: damping floor hit ")
    strips = recording_newton(monkeypatch)
    _, chain = elliptic.continuation_in_width(2.0, 6.0, 4, nx=121, ny=41)
    assert strips == [2.0, 3.0, 4.0, 5.0, 6.0]
    assert [b for b, _ in chain] == [2.0, 3.0, 4.0, 5.0, 6.0]
    assert all(r.finalResidualMax <= TOL_RESIDUAL for _, r in chain)


@pytest.mark.parametrize("b_start, b_end, steps, head, solved, ring", [
    (1.6, 2.4, 2, "continuation failed at b = 1.6", [1.6], "on"),
    (2.0, 6.0, 1, "continuation failed at b = 6.0", [2.0, 6.0], "inside"),
], ids=["first", "retry"])
def test_continuation_failure_keeps_the_solver_reason(monkeypatch, capsys,
                                                      b_start, b_end, steps,
                                                      head, solved, ring):
    # a failing strip solve, the first included, ends the march: its
    # message follows the width, and nothing is retried
    strips = recording_newton(monkeypatch)
    with pytest.raises(TranslabError,
                       match=rf"^{re.escape(head)}: damping floor hit .*, "
                             rf"{ring} the outer interior ring$") as info:
        elliptic.continuation_in_width(b_start, b_end, steps, nx=121, ny=41)
    assert strips == solved
    assert isinstance(info.value.__cause__, TranslabError)
    rc = cli.main(["elliptic", "continuation", "--b-start", str(b_start),
                   "--b-end", str(b_end), "--steps", str(steps),
                   "--nx", "121", "--ny", "41"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {head}: damping floor")


def test_continuation_argument_guards():
    with pytest.raises(ValueError):
        elliptic.continuation_in_width(2.0, 3.0, 0)
    with pytest.raises(ValueError):
        elliptic.continuation_in_width(1.0, 3.0, 2)


def rgi_resample_onto(p_new, sol):
    """The bilinear resampler continuation used before it interpolated in y
    along shared x rows; kept as the reference."""
    from scipy.interpolate import RegularGridInterpolator
    interp = RegularGridInterpolator((sol.xs, sol.ys), sol.values,
                                     bounds_error=False, fill_value=None)
    X, Y = np.meshgrid(p_new.xs, p_new.ys, indexing="ij")
    v = interp(np.stack([X.ravel(), Y.ravel()], axis=1)).reshape(X.shape)
    env = elliptic.tilted_pair_envelope(p_new.b, X, Y)
    outside = np.abs(Y) > sol.ys[-1]
    v[outside] = env[outside]
    return elliptic._smoothed(p_new, v, 2)


def test_resample_matches_bilinear_reference(monkeypatch):
    p0 = StripProblem(2.0, 12.0, 121, 41)
    sol, _ = elliptic.newton_solve(p0, elliptic.initial_guess(p0))
    for b in (2.2, 1.9):                 # a wider and a narrower strip
        p1 = StripProblem(b, 12.0, 121, 41)
        guess = elliptic._resample_onto(p1, sol).values
        ref = rgi_resample_onto(p1, sol).values
        assert np.max(np.abs(guess - ref)) <= 1e-14 * np.max(np.abs(ref))

    counts = []
    for resample in (elliptic._resample_onto, rgi_resample_onto):
        monkeypatch.setattr(elliptic, "_resample_onto", resample)
        _, chain = elliptic.continuation_in_width(2.0, 2.4, 2, nx=121, ny=41)
        counts.append([r.iterations for _, r in chain])
    assert counts[0] == counts[1] == [7, 8, 9]


def test_strip_problem_invariants():
    with pytest.raises(ValueError):
        StripProblem(2.0, 3.0, 41, 41)            # L < 4
    with pytest.raises(ValueError):
        StripProblem(2.0, 6.0, 21, 41)            # resolution
    for b, L in [(1e-200, 6.0), (1e52, 6.0), (2.0, 1e300)]:  # squares
        with pytest.raises(ValueError, match="b must|L must"):
            StripProblem(b, L, 41, 41)
    # the envelope alone: sec^2(theta) = 1 / cos^2(theta) overflows
    with pytest.raises(ValueError, match="finite sec"):
        elliptic.tilted_pair_envelope(1e200, np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="finite b > pi/2"):
        elliptic.tilted_pair_envelope(1.0, np.zeros(3), np.zeros(3))


def test_newton_refuses_an_initial_guess_of_another_grid():
    p = StripProblem(2.0, 6.0, 41, 33)
    with pytest.raises(TranslabError, match="initial guess does not match"):
        newton_solve(p, initial_guess(StripProblem(2.0, 6.0, 41, 41)))


def test_newton_refuses_an_initial_guess_whose_defect_is_not_finite():
    # hx^2 is finite at L = 1e155, but the smoothed guess's residual is not;
    # it used to print numpy's RuntimeWarning before any error line.  This
    # refusal comes before the W^3 one below
    p = StripProblem(2.0, 1e155, 33, 33)
    with pytest.raises(TranslabError, match="the defect of the initial guess is not finite"):
        newton_solve(p, initial_guess(p))


def test_newton_refuses_a_strip_too_long_for_its_grid():
    # at L = 1e130 the smoothed guess's W^3 overflows, so its defect reads 0
    # where the residual is not; such a strip used to end in "linear solve
    # returned non-finite values" (L = 1e120 to 1e154) or to stall at the
    # damping floor (L = 1e105 to 1e115)
    p = StripProblem(2.0, 1e130, 33, 33)
    with pytest.raises(TranslabError, match=re.escape(
            "truncation length L = 1e+130 is too long for the 33 x 33 grid: "
            "the initial guess's W^3 overflows")):
        newton_solve(p, initial_guess(p))


def test_strip_bc_is_the_envelope_until_assigned(monkeypatch):
    # read first, bc is the tilted-pair envelope on every node, evaluated
    # once; data assigned before that replaces it unevaluated
    p = StripProblem(2.0, 6.0, 41, 33)
    env = elliptic.tilted_pair_envelope(
        p.b, *np.meshgrid(p.xs, p.ys, indexing="ij"))
    assert np.array_equal(p.bc, env) and p.bc is p.bc
    monkeypatch.setattr(elliptic, "tilted_pair_envelope",
                        lambda *a: pytest.fail("envelope evaluated"))
    q = StripProblem(2.0, 6.0, 41, 33)
    q.bc = np.zeros((41, 33))
    assert np.array_equal(q.bc, np.zeros((41, 33)))
    assert np.array_equal(initial_guess(q).values, np.zeros((41, 33)))


def full_grid_newton(p, init):
    """The Newton iteration with every linear system on the whole interior,
    no fold and no symmetrization of init: the reference the quadrant solve
    must reproduce.  Returns (values, iterations, factorizations)."""
    hx, hy = p.hx, p.hy
    v = init.values.copy()
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
        J = coo_jacobian(jet, hx, hy)
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
    p = StripProblem(B_ROOT2, 12.0, nx, ny)
    ref, iterations, factorizations = full_grid_newton(p, initial_guess(p))
    sol, rep = newton_solve(p, initial_guess(p))
    assert np.max(np.abs(sol.values - ref)) <= 1e-10
    assert (rep.iterations, rep.factorizations) == (iterations, factorizations)
    gp, gq, _, _, _ = geom.interior_jet(sol.values, p.hx, p.hy)
    res = oracles.residual_field(sol)[1:-1, 1:-1]
    defect = res / (1 + gp * gp + gq * gq) ** 1.5
    assert np.max(np.abs(defect)) <= TOL_RESIDUAL


def test_quadrant_fold_maps_each_node_to_its_reflection():
    for mi, mj in ((5, 4), (4, 5)):
        fold = elliptic._fold_index(mi, mj)
        n = (mi - mi // 2) * (mj - mj // 2)
        assert fold.shape == (mi, mj)
        assert np.array_equal(fold, fold[::-1, :])
        assert np.array_equal(fold, fold[:, ::-1])
        assert np.array_equal(fold[mi // 2:, mj // 2:].ravel(), np.arange(n))


def test_asymmetric_boundary_data_is_refused_before_factoring(monkeypatch):
    p = StripProblem(2.0, 8.0, 121, 49)
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

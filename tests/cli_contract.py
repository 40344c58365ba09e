"""The command-line contract: one table of command lines, one runner.

Every input either finishes or fails with its documented exit code: 1 when
the library refuses the input (a TranslabError) or a file cannot be opened
or written (an OSError), with one "error: ..." line on stderr, and 2 when
argparse refuses the command line, by SystemExit, with its usage text and
its one "<prog>: error: ..." line.  A row of CONTRACT is

    (id, argv, exit code, stdout, stderr[, True])

- argv is split on spaces; {out} is a fresh empty directory and {in} the
  directory of input files that the cli_inputs fixture writes
  (tests/conftest.py).
- stdout is "json" (one JSON object), "" or the one line printed.
- stderr is "" for exit 0, else a regular expression that the error line
  must match in full, with {in} and {out} filled in.
- A sixth element True marks a size bound: it is refused before it
  allocates, so the tracemalloc peak of the run stays under 2 MiB.

check runs a row in process and checks every clause of it, and that the run
ends within 30 s, turns no warning into an exception and, when refused,
leaves {out} empty.  CONTRACT groups the rows by test module and test name;
tests(module) makes one pytest test of each group, so a row runs as
<module>::<name>[<id>].  A new command-line case is one more row.
"""

import json
import math
import re
import signal
import tracemalloc
import warnings

import pytest

from translab import catalog, cli, csf, elliptic, radial

TIME_LIMIT_S = 30
PEAK_BYTES = 2 ** 21


def _past_time_limit(signum, frame):
    # pytest's Failed is a BaseException, so cli.main does not catch it
    pytest.fail(f"the run took more than {TIME_LIMIT_S} s")


def check(argv, code, out, err, *, inputs, tmp_path, capfd, bound=False):
    """Run cli.main on argv and check its exit code (code None: any of 0, 1
    and 2, each by its own rule), stdout and stderr as a row states them."""
    fill = {"in": str(inputs), "out": str(tmp_path)}
    argv = [a.format(**fill) for a in argv.split()]
    previous = signal.signal(signal.SIGALRM, _past_time_limit)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    if bound:
        tracemalloc.start()             # numpy reports its buffers to it
    exited = False
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning leaves main as one
            try:
                rc = cli.main(argv)
            except SystemExit as exc:       # argparse refuses the argv
                rc, exited = exc.code, True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    stdout, stderr = capfd.readouterr()     # capfd: LAPACK's own lines too
    assert rc in ((0, 1, 2) if code is None else (code,))
    if rc == 0:
        assert stderr == ""
        if out == "json":
            assert isinstance(json.loads(stdout), dict)
        else:
            assert stdout == out.format(**fill) + "\n"
        return
    assert stdout == "" and list(tmp_path.iterdir()) == []
    lines = stderr.splitlines()
    assert stderr.endswith("\n")
    if exited:
        assert rc == 2 and ": error: " in lines[-1]
        assert sum(": error: " in line for line in lines) == 1
    else:
        assert rc == 1 and len(lines) == 1 and lines[0].startswith("error: ")
    if err is not None:
        escaped = {k: re.escape(v) for k, v in fill.items()}
        assert re.fullmatch(err.format(**escaped), lines[-1]), lines[-1]
    assert not bound or peak < PEAK_BYTES, peak


def _check_row(row, cli_inputs, tmp_path, capfd):
    check(*row[1:5], inputs=cli_inputs, tmp_path=tmp_path, capfd=capfd,
          bound=row[5:] == (True,))


def tests(module):
    """{name: test function} of each group of CONTRACT[module]: one test
    case per row under the row's id, or a plain test for one row whose id is
    None."""
    def make(rows):
        if rows[0][0] is None:
            def test(cli_inputs, tmp_path, capfd):
                _check_row(rows[0], cli_inputs, tmp_path, capfd)
            return test

        @pytest.mark.parametrize("row", rows, ids=[row[0] for row in rows])
        def test(row, cli_inputs, tmp_path, capfd):
            _check_row(row, cli_inputs, tmp_path, capfd)
        return test
    return {name: make(rows) for name, rows in CONTRACT[module].items()}


FLOWED = r"cannot be flowed: lengths must lie in \[1e-60, 1e\+60\]"
HUGE_GRID = (r"{in}/huge\.csv: node indices must cover each of the "
             r"100000000x100000000 nodes exactly once \(1 rows for "
             r"10000000000000000 nodes\)")
NODES = r"grid nodes must be finite, got x0 = {}, hx = {}, y0 = 0\.0.*"
OVERFLOWED = "error: difference quotients overflowed"
STRIP_B = ("error: strip half-width b must keep hy^2 and sec^6(theta) finite "
           "and positive, got ")
UNKNOWN = r"translab( [a-z-]+)*: error: unrecognized arguments: "
NODATA = {"analyze-sx": ("analyze sx --in {}", "grid"),
          "export-obj": ("export obj --in {} --out {{out}}/e.obj", "grid"),
          "radial-fit": ("radial fit --in {} --rlo 1 --rhi 2", "profile")}

# every subcommand with only its required arguments; csf compare at its
# default --n 256 takes about 4 s, so it runs at --n 64 until the curve
# distance is sub-quadratic
DEFAULTS = [
    ("catalog residual", "catalog residual", 0, "json", ""),
    ("radial shoot", "radial shoot --out {out}/p.csv", 0, "json", ""),
    ("radial fit", "radial fit --in {in}/p.csv --rlo 2 --rhi 5", 0, "json",
     ""),
    ("elliptic delta-wing", "elliptic delta-wing --b 2.2", 0, "json", ""),
    ("elliptic continuation", "elliptic continuation --b-start 2.2 "
     "--b-end 2.4", 0, "json", ""),
    ("csf run", "csf run --out {out}/l.csv", 0, "json", ""),
    ("csf compare", "csf compare --n 64", 0, "json", ""),
    ("analyze sx", "analyze sx --in {in}/g.csv", 0, "json", ""),
    ("analyze jacobi", "analyze jacobi --in {in}/g.csv", 0, "json", ""),
    ("analyze firstvar", "analyze firstvar --in {in}/g.csv", 0, "json", ""),
    ("export obj", "export obj --in {in}/p.csv --out {out}/p.obj", 0,
     "wrote {out}/p.obj", ""),
]

CONTRACT = {"test_io_cli": {
    # each used to end otherwise: Amax^2 underflowing to 0 in a
    # ZeroDivisionError (1e200, 1e308), t overflowing to inf in exit 0 with
    # no stopReason (5e154), numpy RuntimeWarnings before the error line
    # (1e150) or after a flow whose times squared underflow in the fit
    # (1e-100), h = 1e-7, both n, the grid header's 10^16 nodes and the 3.3e9
    # strip nodes in a failed allocation, 10^8 continuation steps
    # in a run of more than a minute, grid nodes that are not finite in nan
    # or inf OBJ vertices with exit 0, and an infinite radius
    "test_cli_refuses_a_scale_it_cannot_compute": [
        ("circle-1e200", "csf run --radius 1e200 --n 16 --out {out}/l.csv", 1,
         "", rf"error: curve of length 6\.2\d*e\+200 {FLOWED}.*"),
        ("ellipse-1e308", "csf run --shape ellipse --a 1e308 --b 1 --n 16 "
         "--out {out}/l.csv", 1, "", rf"error: curve of length inf {FLOWED}.*"),
        ("circle-5e154", "csf run --radius 5e154 --n 16 --out {out}/l.csv", 1,
         "", rf"error: curve of length 3\.1\d*e\+155 {FLOWED}.*"),
        ("circle-1e150", "csf run --radius 1e150 --n 16 --out {out}/l.csv", 1,
         "", rf"error: curve of length 6\.2\d*e\+150 {FLOWED}.*"),
        ("circle-1e-100", "csf run --radius 1e-100 --n 16 --out {out}/l.csv",
         1, "", rf"error: curve of length 6\.2\d*e-100 {FLOWED}.*"),
        ("circle-inf", "csf run --radius inf --out {out}/l.csv", 1, "",
         r"error: curve semi-axes and center must be finite, got a = inf, "
         r"b = inf, center = \(0\.0, 0\.0\)"),
        ("run-n-1e8", "csf run --n 100000000 --out {out}/l.csv", 1, "",
         r"error: curve of n = 100000000 points exceeds the bound of 1000000 "
         r"points.*", True),
        ("compare-n-1e5", "csf compare --n 100000", 1, "",
         r"error: curves of n = 100000 and n = 100000 points need "
         r"10000000000 vertex-segment pairs per distance, more than 1048576.*",
         True),
        ("catalog-h", "catalog residual --h 1e-7", 1, "",
         r"error: step h = 1e-07 needs more than 10000000 grid nodes.*", True),
        ("sx-grid-1e16", "analyze sx --in {in}/huge.csv", 1, "",
         rf"error: {HUGE_GRID}.*", True),
        ("obj-grid-1e16", "export obj --in {in}/huge.csv --out {out}/h.obj", 1,
         "", rf"error: {HUGE_GRID}.*", True),
        ("strip-nx-1e8", "elliptic delta-wing --b 2 --nx 100000000 --ny 33", 1,
         "", r"error: strip grid of nx x ny = 100000000 x 33 = 3300000000 "
         r"nodes exceeds the bound of 1000000 nodes.*", True),
        ("cont-steps-1e8", "elliptic continuation --b-start 2 --b-end 3 "
         "--steps 100000000", 1, "", r"error: continuation of steps = "
         r"100000000 exceeds the bound of 1000 steps.*", True),
        *((f"{cmd}-{key}-{value}", argv.format(f"{{in}}/{key}-{value}.csv"), 1,
           "", "error: " + NODES.format(*nodes))
          for key, value, nodes in (("x0", "nan", ("nan", r"1\.0")),
                                    ("hx", "inf", (r"0\.0", "inf")),
                                    ("hx", "1e308", (r"0\.0", r"1e\+308")))
          for cmd, argv in (("sx", "analyze sx --in {}"),
                            ("obj", "export obj --in {} --out {{out}}/g.obj"))),
    ],
    "test_cli_unopenable_path_is_an_error_line": [
        ("fit-in", "radial fit --in {in}/missing.csv --rlo 1 --rhi 2", 1, "",
         r"error: \[Errno 2\] No such file or directory: '{in}/missing\.csv'"),
        ("export-in", "export obj --in {in}/missing.csv --out {out}/m.obj", 1,
         "", r"error: \[Errno 2\] No such file or directory: "
         r"'{in}/missing\.csv'"),
        ("shoot-out", "radial shoot --rmax 1 --h 0.01 "
         "--out {out}/nonexistent/dir/b.csv", 1, "",
         r"error: \[Errno 2\] No such file or directory: "
         r"'{out}/nonexistent/dir/b\.csv'"),
    ],
    # np.loadtxt used to warn "input contained no data" on stderr before the
    # error line "expected rows of 5 fields" (6 for a profile)
    "test_cli_csv_without_data_rows_is_one_error_line": [
        (f"{columns}-{name}", argv.format(f"{{in}}/nodata-{tag}{suffix}.csv"),
         1, "", rf"error: {{in}}/nodata-{tag}{suffix}\.csv: {tag} CSV has no "
         r"data rows")
        for columns, suffix in (("columns", ""), ("no-columns", "-head"))
        for name, (argv, tag) in NODATA.items()],
    # export obj sends a file that is not a profile CSV to the grid reader
    "test_cli_undecodable_csv_names_its_file": [
        ("analyze-sx", "analyze sx --in {in}/u.csv", 1, "",
         r"error: {in}/u\.csv: .*can't decode byte 0xff.*"),
        ("export-obj", "export obj --in {in}/u.csv --out {out}/e.obj", 1, "",
         r"error: {in}/u\.csv: .*can't decode byte 0xff.*"),
    ],
    # the ids of this group and of test_cli_firstvar_names_the_bad_option
    # are their test names, kept from when a grammar check printed its own
    # "usage error:" line and the library's bump checks gave exit 2
    "test_cli_catalog_refuses_a_theta_outside_its_kind": [
        (f"{kind}-0.3-2-usage error: --theta applies to --kind tilted, not "
         f"{kind}", f"catalog residual --kind {kind} --theta 0.3", 2, "",
         "translab catalog residual: error: --theta applies to --kind "
         f"tilted, not {kind}")
        for kind in ("grim", "plane")] + [
        ("tilted-2-1-error: theta must lie in [0, pi/2)",
         "catalog residual --kind tilted --theta 2", 1, "",
         r"error: theta must lie in \[0, pi/2\)")],
    "test_cli_firstvar_bump_needs_three_numbers": [
        (None, "analyze firstvar --in {in}/g.csv --bump 1,2", 2, "",
         r"translab analyze firstvar: error: argument --bump: expected "
         r"cx,cy,radius, not '1,2'")],
    # what is not a profile CSV goes to the grid reader, which refuses it
    "test_cli_export_refuses_a_foreign_csv": [
        (None, "export obj --in {in}/x.csv --out {out}/x.obj", 1, "",
         r"error: {in}/x\.csv is not a grid CSV")],
    # (n - 1)/lam overflowed in the neck equation, psi became -inf and
    # math.cos raised "math domain error", which main caught as a bare
    # ValueError
    "test_cli_radial_shoot_refuses_a_neck_radius_whose_reciprocal_overflows": [
        (f"{kind}-{n}-{lam}", f"radial shoot --kind {kind} --n {n} --lam {lam} "
         "--out {out}/p.csv", 1, "", f"error: neck radius lam = {lam}: "
         r"\(n - 1\)/lam overflows")
        for kind in ("catenoid-upper", "catenoid-lower")
        for n, lam in (("2", "1e-310"), ("2", "5e-324"), ("3", "1e-308"))],
    # a stage of the step overflowed and math.cos(inf) raised "math domain
    # error": the step is rejected, down to the step floor
    "test_cli_radial_shoot_rejects_a_step_whose_stage_overflows": [
        (name, f"radial shoot --kind catenoid-upper {argv} --out {{out}}/p.csv",
         1, "", r"error: local error \S+ above tolerance 1\.0e-15 at the step "
         "floor")
        for name, argv in (("n-10-lam-1e-307", "--n 10 --lam 1e-307"),
                           ("lam-1e-154-h-1e154", "--lam 1e-154 --h 1e154 "
                            "--rmax 5"))],
    # an 81-digit n: the bowl's n^3 (n + 2) and a wing's (n - 1)/lam raised
    # OverflowError "int too large to convert to float", a traceback
    "test_cli_radial_shoot_refuses_an_n_too_large_to_use": [
        (kind, f"radial shoot --kind {kind} --n {10 ** 80} --rmax 5 --h 0.1 "
         "--out {out}/p.csv", 1, "", f"error: surface dimension n = {10 ** 80} "
         r"is too large: n\^3 \(n \+ 2\) leaves the float range")
        for kind in ("bowl", "catenoid-upper", "catenoid-lower")],
    # a fit used to exit 0 with every coefficient "nan"
    "test_cli_refuses_a_profile_sample_that_is_not_finite": [
        (f"{cmd}-{value}", argv.format(f"{{in}}/p-{value}.csv"), 1, "",
         "error: profile samples must be finite")
        for value in ("nan", "inf")
        for cmd, argv in (("fit", "radial fit --in {} --rlo 1 --rhi 5"),
                          ("obj", "export obj --in {} --out {{out}}/p.obj"))],
    # an OBJ's command line comment that does not encode (here a path byte
    # that is not UTF-8): main used to catch the UnicodeEncodeError as a bare
    # ValueError; the refusal comes before the file exists
    "test_cli_obj_refuses_a_command_line_it_cannot_encode": [
        (None, "export obj --in {in}/p.csv --out {out}/\udcff.obj", 1, "",
         r"error: '[\w-]+' codec can't encode character '\\udcff' in "
         r"position \d+: .*")],
    # library refusals that no other row reaches
    "test_cli_refusal_of_an_input_no_other_row_reaches": [
        ("grid-2x2", "analyze sx --in {in}/grid-2x2.csv", 1, "",
         r"error: grid needs nx, ny >= 3, got 2x2"),
        ("grid-hx-1", "analyze sx --in {in}/hx--1.csv", 1, "",
         "error: grid spacings must be positive"),
        ("grid-u-nan", "analyze sx --in {in}/u-nan.csv", 1, "",
         "error: grid values must be finite"),
        ("grid-nx-abc", "analyze sx --in {in}/nx-abc.csv", 1, "",
         r"error: {in}/nx-abc\.csv: malformed grid CSV: invalid literal for "
         r"int\(\) with base 10: 'abc'"),
        ("grid-fields-4", "analyze sx --in {in}/fields-4.csv", 1, "",
         r"error: {in}/fields-4\.csv: expected rows of 5 fields"),
        ("profile-swapped", "radial fit --in {in}/p-swapped.csv --rlo 1 "
         "--rhi 5", 1, "", "error: profile radii must be strictly increasing"),
        ("fit-window", "radial fit --in {in}/bowl-h1.csv --rlo 3 --rhi 9", 1,
         "", "error: too few samples in the fit window"),
        # the strip is too long for its grid, short of the W^3 refusal
        ("strip-L-1e101", "elliptic delta-wing --b 2 --L 1e101 --nx 33 "
         "--ny 33", 1, "", "error: linear solve returned non-finite values"),
    ],
    # these used to run into a timeout, or write a wing that is not one
    "test_cli_radial_shoot_refuses_unbounded_inputs": [
        (f"{kind}-{option}-{value}", f"radial shoot --kind {kind} {option} "
         f"{value} --out {{out}}/p.csv", 1, "",
         r"error: .*must be finite and positive.*")
        for kind in ("bowl", "catenoid-upper", "catenoid-lower")
        for option, value in (("--h", "-0.01"), ("--h", "0"), ("--h", "nan"),
                              ("--lam", "nan"), ("--lam", "-1"),
                              ("--rmax", "inf"), ("--rmax", "nan"))
        if (kind, option) != ("bowl", "--lam")],     # the bowl has no neck
    # -5 used to give a 5x5 grid, nan "cannot convert float NaN to integer";
    # the plane samples no grid, and refuses the same steps
    "test_cli_catalog_refuses_a_step_that_is_not_positive": [
        (f"{h}-{kind}", f"catalog residual --kind {kind} --h {h}", 1, "",
         "error: step h must be finite and positive, not "
         + re.escape(repr(float(h))))
        for h in ("-5", "0", "nan", "inf") for kind in ("grim", "tilted",
                                                        "plane")],
    # NaN used to pass the <= 0 checks and fail later on non-finite values
    "test_cli_firstvar_names_the_bad_option": [
        (f"argv{k}-{old}", f"analyze firstvar --in {{in}}/g.csv "
         f"--bump {bump}", 1, "", f"error: {err}")
        for k, (bump, old, err) in enumerate((
            ("0,0,nan", "2-bad --bump '0,0,nan': bump radius",
             "bump radius must be finite and positive"),
            ("nan,0,1", "2-bad --bump 'nan,0,1': bump center",
             "bump center must be finite"),
            ("0,0,-1", "2-bad --bump '0,0,-1': bump radius",
             "bump radius must be finite and positive"),
            ("100,0,1.5", "1-error: bump support holds no grid node",
             "bump support holds no grid node")))],
    # the flow step, the flow's stopping curvature and the first-variation
    # epsilon are the constants csf.DT_SAFETY, csf.AMAX_STOP and
    # analysis.EPSILON: their old flags are unknown, at their old default
    # values too
    "test_cli_step_constants_take_no_option": [
        ("dt-safety", "csf run --n 32 --out {out}/l.csv --dt-safety 0.02", 2,
         "", UNKNOWN + r"--dt-safety 0\.02"),
        ("eps", "analyze firstvar --in {in}/g.csv --eps 0.0001", 2, "",
         UNKNOWN + r"--eps 0\.0001"),
        *((f"stop-amax-{sub}-{v}", f"csf {sub} --n 32 {out}--stop-amax {v}",
           2, "", UNKNOWN + rf"--stop-amax {v}")
          for sub, out in (("run", "--out {out}/l.csv "), ("compare", ""))
          for v in ("50", "10000")),
    ],
    # a revolution OBJ has io._SAMPLES = 128 angles: --angular-samples is
    # unknown, at its old default too
    "test_cli_revolution_export_takes_no_sample_count": [
        (n, f"export obj --in {{in}}/p.csv --out {{out}}/p.obj "
         f"--angular-samples {n}", 2, "", UNKNOWN + f"--angular-samples {n}")
        for n in ("64", "128")],
    # u = 1e300 x: p * p overflows.  sx and jacobi used to print numpy's
    # overflow RuntimeWarning and its source line before the error line,
    # firstvar two warnings and then "grid values must be finite".  At
    # h = 1e-155 the slopes are finite and u_xx overflows, at h = 1e-160
    # both do.  At h = 1e-150 kappa1 overflows and at h = 1e-100 the
    # principal-direction norm: sx and jacobi printed 1 to 12 warnings
    # there, and jacobi at 1e-100 exited 0 with a defect of 1.1e106 read off
    # an overflowed direction field
    "test_cli_overflowing_slopes_are_one_error_line": [
        (sub + suffix, f"analyze {sub} --in {{in}}/{name}.csv {bump}", 1, "",
         err)
        for suffix, name, subs in (
            ("", "steep", {"sx": "", "jacobi": "", "firstvar": ""}),
            ("-h1e-155", "tiny-1e-155", {"sx": "", "jacobi": "", "firstvar":
                                         "--bump 0,0,8e-155"}),
            ("-h1e-160", "tiny-1e-160", {"sx": "", "jacobi": "", "firstvar":
                                         "--bump 0,0,8e-160"}),
            ("-h1e-150", "tiny-1e-150", {"sx": "", "jacobi": ""}),
            ("-h1e-100", "tiny-1e-100", {"sx": "", "jacobi": ""}))
        for sub, bump in subs.items()
        for err in ["error: weighted area overflowed"
                    if (sub, name) == ("firstvar", "tiny-1e-155")
                    else OVERFLOWED]],
    # at h = 1e-60 nothing overflows; sx divided by kappa1 = 0 and printed
    # seven numpy warnings ahead of its report
    "test_cli_tiny_grid_within_range_runs_without_warning": [
        (sub, f"analyze {sub} --in {{in}}/tiny-1e-60.csv", 0, "json", "")
        for sub in ("sx", "jacobi")],
    # b = inf used to end in a ZeroDivisionError traceback, nan in "grid
    # spacings must be positive", and L = inf or b_end = inf printed numpy's
    # RuntimeWarning ahead of the error line.  Finite sizes whose squares
    # overflow did the same: b = 1e200 and b_end = 1e300 ended in the
    # traceback, L = 1e300 and b = 1e150 printed the warning and then
    # "Factor is exactly singular".  At L = 1e130 the W^3 of the initial
    # guess overflows
    "test_cli_strip_refuses_a_width_or_length_that_is_not_finite": [
        (name, f"elliptic {argv} --nx 33 --ny 33", 1, "", re.escape(err))
        for name, argv, err in (
            ("b-inf", "delta-wing --b inf", "error: strip half-width b must "
             "be finite and positive, got inf"),
            ("b-nan", "delta-wing --b nan", "error: strip half-width b must "
             "be finite and positive, got nan"),
            ("L-nan", "delta-wing --b 2 --L nan", "error: truncation length L "
             "must be finite and >= 4, got nan"),
            ("L-inf", "delta-wing --b 2 --L inf", "error: truncation length L "
             "must be finite and >= 4, got inf"),
            ("b-end-inf", "continuation --b-start 2 --b-end inf --steps 2",
             "error: continuation b_end must be finite, got inf"),
            ("b-start-nan", "continuation --b-start nan --b-end 2 --steps 2",
             "error: continuation b_start must be finite, got nan"),
            ("b-1e200", "delta-wing --b 1e200", STRIP_B + "1e+200"),
            ("b-1e150", "delta-wing --b 1e150", STRIP_B + "1e+150"),
            ("L-1e300", "delta-wing --b 2 --L 1e300", "error: truncation "
             "length L must keep hx^2 finite, got 1e+300"),
            ("b-end-1e300", "continuation --b-start 2 --b-end 1e300 --steps 2",
             STRIP_B + "1e+300"),
            ("L-1e130", "delta-wing --b 2 --L 1e130", "error: truncation "
             "length L = 1e+130 is too long for the 33 x 33 grid: the "
             "initial guess's W^3 overflows"))],
    # r_lo <= 0 used to print numpy's warnings, LAPACK's DLASCL complaint
    # and "SVD did not converge"; nan reported too few samples in the window
    "test_cli_radial_fit_refuses_a_bound_that_is_not_finite_positive": [
        (f"{rlo}-{rhi}-{err}", f"radial fit --in {{in}}/p.csv --rlo {rlo} "
         f"--rhi {rhi}", 1, "", re.escape(f"error: {err}"))
        for rlo, rhi, err in (
            ("0", "20", "fit bound r_lo must be finite and positive, got 0.0"),
            ("-5", "20", "fit bound r_lo must be finite and positive, got "
             "-5.0"),
            ("nan", "20", "fit bound r_lo must be finite and positive, got "
             "nan"),
            ("2", "nan", "fit bound r_hi must be finite, got nan"),
            ("2", "inf", "fit bound r_hi must be finite, got inf"))],
    # numpy's lstsq raised LinAlgError "SVD did not converge in Linear Least
    # Squares" after LAPACK's DLASCL complaint, which main caught as a bare
    # ValueError
    "test_cli_radial_fit_refuses_samples_whose_square_leaves_the_float_range": [
        (tag, f"radial fit --in {{in}}/p-{tag}.csv --rlo {rlo} --rhi {rhi}", 1,
         "", r"error: fit samples r in \[\S+, \S+\]: r\^2 leaves the float "
         "range")
        for tag, rlo, rhi in (("huge-r", "1e90", "1e200"),
                              ("tiny-r", "1e-300", "1e-290"))],
    "test_cli_csf_too_few_points_is_the_curve_error": [
        # the curve constructor's error, not a shape-spec usage error
        ("run", "csf run --n 3 --out {out}/log.csv", 1, "",
         "error: curve needs at least 8 points"),
        ("compare", "csf compare --n 3", 1, "",
         "error: curve needs at least 8 points"),
    ],
    # NaN Amax used to give a NaN dt and a flow toward maxSteps
    "test_cli_csf_nan_curvature_exits_at_once": [
        ("radius0", "csf run --radius 0 --out {out}/log.csv", 1, "",
         "error: curvature not finite.*"),
        ("b0", "csf run --shape ellipse --b 0 --out {out}/log.csv", 1, "",
         "error: curvature not finite.*"),
    ],
    # the distance check used to divide by the zero-length edges first and
    # print numpy's RuntimeWarning ahead of the error line
    "test_cli_compare_refuses_a_point_before_any_distance": [
        (None, "csf compare --shape1 circle:0", 1, "",
         r"error: curvature not finite at t=0\.0")],
    # b <= pi/2 is a numerical-domain error
    "test_cli_numerical_failure_exit_code": [
        (None, "elliptic delta-wing --b 1.0 --L 8 --nx 41 --ny 41", 1, "",
         r"error: Delta-wings need strip half-width b > pi/2")],
    # near the threshold the one Newton solve stalls; the message is the
    # damping floor's and names no width the user did not give
    "test_cli_delta_wing_stall_is_the_solver_error": [
        (None, "elliptic delta-wing --b 1.5718 --nx 41 --ny 33", 1, "",
         r"error: damping floor hit at iteration ((?!b =).)*")],
    "test_cli_bad_shape_spec": [
        (None, "csf compare --shape1 blob:1 --shape2 circle:2", 2, "",
         "translab csf compare: error: argument --shape1: expected "
         "circle:R or ellipse:a:b, not 'blob:1'")],
    # --rep would abbreviate --report; options are spelled in full
    "test_cli_abbreviated_flag_is_a_usage_error": [
        (None, "csf run --n 64 --rep x --out {out}/log.csv", 2, "",
         UNKNOWN + "--rep x")],
    # the command line is the whole input of a run: --config FILE is refused
    # like any other unknown option, before anything runs
    "test_cli_config_is_an_unknown_option": [
        (name.replace(" ", "-"), f"{argv} --config {{in}}/cfg.json", 2, "",
         UNKNOWN + r"--config {in}/cfg\.json")
        for name, argv, *_ in DEFAULTS],
}, "test_cli_sweep": {
    # each size bound on its refused side: the bound's name, its value in
    # the error line, and the argv past it
    "test_size_past_its_bound_is_refused": [
        (name, argv, 1, "", rf"error: .*{value}.*", True)
        for name, value, argv in (
        ("elliptic._MAX_NODES", elliptic._MAX_NODES,
         "elliptic delta-wing --b 2.2 --ny 33 "
         f"--nx {elliptic._MAX_NODES // 33 + 1}"),
        ("elliptic._MAX_STEPS", elliptic._MAX_STEPS,
         "elliptic continuation --b-start 2.2 --b-end 2.4 --nx 33 --ny 33 "
         f"--steps {elliptic._MAX_STEPS + 1}"),
        ("csf._MAX_POINTS", csf._MAX_POINTS,
         f"csf run --out {{out}}/l.csv --n {csf._MAX_POINTS + 1}"),
        ("csf._MAX_PAIRS", csf._MAX_PAIRS,
         f"csf compare --n {math.isqrt(csf._MAX_PAIRS) + 1}"),
        ("catalog._MAX_NODES", catalog._MAX_NODES,
         "catalog residual --kind tilted --theta 0.5 --h "
         + repr(2 * catalog.half_width(0.5) * catalog.HALF_WIDTH_FRAC
                / math.isqrt(catalog._MAX_NODES))),
        ("radial._MAX_SAMPLES", radial._MAX_SAMPLES,
         "radial shoot --out {out}/p.csv --rmax 5 "
         f"--h {5.0 / (2 * radial._MAX_SAMPLES)!r}"),
        # two options, each inside its own bound, whose product is past one
        ("delta-wing-nx-ny", elliptic._MAX_NODES,
         "elliptic delta-wing --b 2 --nx 1001 --ny 1001"),
        ("continuation-nx-ny", elliptic._MAX_NODES,
         "elliptic continuation --b-start 2 --b-end 3 --nx 1001 --ny 1001"),
        ("radial-shoot-rmax-h", radial._MAX_SAMPLES,
         "radial shoot --out {out}/p.csv --rmax 5000 --h 1e-4"))],
    # the accepted side of a bound, where a run at it takes well under 1 s:
    # a curve already past csf.AMAX_STOP takes one distance sample
    "test_size_at_its_bound_is_accepted": [
        ("csf._MAX_PAIRS", f"csf compare --n {math.isqrt(csf._MAX_PAIRS)} "
         "--shape1 circle:1e-5 --shape2 circle:1", 0, "json", "")],
    "test_subcommand_runs_at_its_defaults": DEFAULTS,
}}

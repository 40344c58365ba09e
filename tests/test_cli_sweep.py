"""Every numeric option of every subcommand, at each value of a fixed pool.

cli.main must end each run with exit code 0, 1 or 2, let no exception out
(argparse's own refusal is SystemExit(2)), and write nothing to stderr but
one error line: "error: ..." (exit 1), "usage error: ..." (exit 2), or
argparse's usage text and its "<prog>: error: ..." line; a run that exits
0 prints a JSON report (export obj prints a line of text).  The pool is
enumerable, so every value meets every option: floats take FLOATS, ints
INTS.  The base runs are small (33x33 strips, curves of 32 points, a bowl
out to r = 5), so the whole sweep takes seconds.
"""

import argparse
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from translab import catalog, cli, csf, elliptic, grid, io as tio, radial

FLOATS = ["nan", "inf", "-inf", "0", "-1", "5e-324", "1e-300", "1e300",
          "1.8e308"]
INTS = ["0", "-1"]

# base argv of each subcommand; {p} is a bowl profile CSV, {g} a 33x33 grid
# CSV and {out} a fresh directory
BASE = {
    ("catalog", "residual"): ["--kind", "tilted", "--theta", "0.5",
                              "--h", "0.05"],
    ("radial", "shoot"): ["--rmax", "5", "--h", "1e-2", "--out", "{out}/p.csv"],
    ("radial", "fit"): ["--in", "{p}", "--rlo", "2", "--rhi", "5"],
    ("elliptic", "delta-wing"): ["--b", "2.2", "--nx", "33", "--ny", "33"],
    ("elliptic", "continuation"): ["--b-start", "2.2", "--b-end", "2.4",
                                   "--steps", "1", "--nx", "33", "--ny", "33"],
    ("csf", "run"): ["--n", "32", "--out", "{out}/l.csv"],
    ("csf", "compare"): ["--n", "32"],
    ("analyze", "firstvar"): ["--in", "{g}"],
    ("export", "obj"): ["--in", "{p}", "--out", "{out}/p.obj"],
}

# options that only act with another choice of the base
EXTRA = {
    ("radial", "shoot", "--lam"): ["--kind", "catenoid-upper"],
    ("csf", "run", "--a"): ["--shape", "ellipse"],
    ("csf", "run", "--b"): ["--shape", "ellipse"],
}

# string options that carry a number: the pool fills their template
TEMPLATES = {
    ("csf", "compare", "--shape1"): "circle:{}",
    ("csf", "compare", "--shape2"): "circle:{}",
    ("analyze", "firstvar", "--bump"): "0,0,{}",
}


def _choices(parser):
    """(name, parser) of each choice of parser's subcommands."""
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            yield from a.choices.items()


def _numeric_options():
    """{(command, subcommand, option): pool} of every option whose argparse
    type is a number."""
    pools = {int: INTS, float: FLOATS, cli._finite_positive: FLOATS}
    return {(cmd, sub, a.option_strings[-1]): pools[a.type]
            for cmd, group in _choices(cli._build_parser())
            for sub, parser in _choices(group)
            for a in parser._actions if a.type in pools}


OPTIONS = _numeric_options()
CASES = [(*key, value) for key, pool in OPTIONS.items() for value in pool] + \
        [(*key, template.format(value)) for key, template in TEMPLATES.items()
         for value in FLOATS]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    tio.write_profile_csv(radial.shoot_bowl(2, 5.0, 1e-2), d / "p.csv")
    tio.write_grid_csv(grid.from_function(
        lambda X, Y: np.sin(X) * np.cos(Y) / 3, -2, 2, -2, 2, 33, 33),
        d / "g.csv")
    return {"p": d / "p.csv", "g": d / "g.csv"}


def test_sweep_tables_name_only_swept_subcommands_and_options():
    # OPTIONS comes from the parser, so a new numeric option is swept as
    # soon as it exists; the hand-written tables must not go stale
    assert {(c, s) for c, s, _ in OPTIONS} | {(c, s) for c, s, _ in TEMPLATES} \
        == set(BASE)
    assert set(EXTRA) <= set(OPTIONS) and not set(TEMPLATES) & set(OPTIONS)


@pytest.mark.parametrize("cmd, sub, option, value", CASES,
                         ids=[" ".join(c) for c in CASES])
def test_numeric_option_ends_in_an_exit_code(tmp_path, capfd, inputs, cmd,
                                             sub, option, value):
    base = [a.format(out=tmp_path, **inputs) for a in BASE[cmd, sub]]
    # --opt=value: argparse would take a bare "-inf" for an option name
    argv = [cmd, sub, *base, *EXTRA.get((cmd, sub, option), []),
            f"{option}={value}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # a warning leaves main as one
        try:
            rc = cli.main(argv)
        except SystemExit as exc:           # argparse refuses the option
            rc = exc.code
            err = capfd.readouterr().err.splitlines()
            assert rc == 2 and ": error: " in err[-1]
            assert sum(": error: " in line for line in err) == 1
            return
    out, err = capfd.readouterr()
    assert rc in (0, 1, 2)
    if rc == 0:
        assert err == ""
        if (cmd, sub) != ("export", "obj"):
            assert isinstance(json.loads(out), dict)
    else:
        assert err.count("\n") == 1
        assert err.startswith("error: " if rc == 1 else "usage error: ")


# each size bound on its refused side: the bound's name, its value as the
# error line writes it, and the argv past it
BOUNDS = [
    ("elliptic._MAX_NODES", str(elliptic._MAX_NODES),
     ["elliptic", "delta-wing", "--b", "2.2", "--ny", "33",
      "--nx", str(elliptic._MAX_NODES // 33 + 1)]),
    ("elliptic._MAX_STEPS", str(elliptic._MAX_STEPS),
     ["elliptic", "continuation", "--b-start", "2.2", "--b-end", "2.4",
      "--nx", "33", "--ny", "33", "--steps", str(elliptic._MAX_STEPS + 1)]),
    ("csf._MAX_POINTS", str(csf._MAX_POINTS),
     ["csf", "run", "--out", "{out}/l.csv", "--n", str(csf._MAX_POINTS + 1)]),
    ("csf._MAX_PAIRS", str(csf._MAX_PAIRS),
     ["csf", "compare", "--n", str(math.isqrt(csf._MAX_PAIRS) + 1)]),
    ("catalog._MAX_NODES", str(catalog._MAX_NODES),
     ["catalog", "residual", "--kind", "tilted", "--theta", "0.5", "--h",
      repr(2 * catalog.half_width(0.5) * catalog.HALF_WIDTH_FRAC
           / math.isqrt(catalog._MAX_NODES))]),
    ("radial._MAX_SAMPLES", str(radial._MAX_SAMPLES),
     ["radial", "shoot", "--out", "{out}/p.csv", "--rmax", "5",
      "--h", repr(5.0 / (2 * radial._MAX_SAMPLES))]),
    ("io._MAX_VERTICES", str(tio._MAX_VERTICES),
     ["export", "obj", "--in", "{p}", "--out", "{out}/p.obj",
      "--angular-samples", str(tio._MAX_VERTICES + 1)]),
    # two options, each inside its own bound, whose product is past one
    ("delta-wing-nx-ny", str(elliptic._MAX_NODES),
     ["elliptic", "delta-wing", "--b", "2", "--nx", "1001", "--ny", "1001"]),
    ("continuation-nx-ny", str(elliptic._MAX_NODES),
     ["elliptic", "continuation", "--b-start", "2", "--b-end", "3",
      "--nx", "1001", "--ny", "1001"]),
    ("radial-shoot-rmax-h", str(radial._MAX_SAMPLES),
     ["radial", "shoot", "--out", "{out}/p.csv", "--rmax", "5000",
      "--h", "1e-4"]),
]


@pytest.mark.parametrize("bound, argv", [b[1:] for b in BOUNDS],
                         ids=[b[0] for b in BOUNDS])
def test_size_past_its_bound_is_refused(tmp_path, capfd, inputs, bound, argv):
    # refused before allocating: one 1001 x 1001 float array is 8 MB, and
    # numpy reports its buffers to tracemalloc
    tracemalloc.start()
    try:
        rc = cli.main([a.format(out=tmp_path, **inputs) for a in argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capfd.readouterr()
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and bound in err
    assert peak < 2 ** 21


# the accepted side of a bound, where a run at it takes well under a second
AT_BOUNDS = [
    ("csf._MAX_PAIRS",
     ["csf", "compare", "--n", str(math.isqrt(csf._MAX_PAIRS)),
      "--stop-amax", "0.5"]),
]


@pytest.mark.parametrize("argv", [a for _, a in AT_BOUNDS],
                         ids=[name for name, _ in AT_BOUNDS])
def test_size_at_its_bound_is_accepted(tmp_path, capfd, inputs, argv):
    rc = cli.main([a.format(out=tmp_path, **inputs) for a in argv])
    out, err = capfd.readouterr()
    assert (rc, err) == (0, "")
    assert isinstance(json.loads(out), dict)


# every subcommand with only its required arguments; csf compare at its
# default --n 256 takes about 4 s, so it runs at --n 64 until the curve
# distance is sub-quadratic
DEFAULTS = {
    ("catalog", "residual"): [],
    ("radial", "shoot"): ["--out", "{out}/p.csv"],
    ("radial", "fit"): ["--in", "{p}", "--rlo", "2", "--rhi", "5"],
    ("elliptic", "delta-wing"): ["--b", "2.2"],
    ("elliptic", "continuation"): ["--b-start", "2.2", "--b-end", "2.4"],
    ("csf", "run"): ["--out", "{out}/l.csv"],
    ("csf", "compare"): ["--n", "64"],
    ("analyze", "sx"): ["--in", "{g}"],
    ("analyze", "jacobi"): ["--in", "{g}"],
    ("analyze", "firstvar"): ["--in", "{g}"],
    ("export", "obj"): ["--in", "{p}", "--out", "{out}/p.obj"],
}


def test_defaults_table_names_every_subcommand():
    assert set(DEFAULTS) == {(cmd, sub)
                             for cmd, group in _choices(cli._build_parser())
                             for sub, _ in _choices(group)}


@pytest.mark.parametrize("cmd, sub", list(DEFAULTS),
                         ids=[" ".join(k) for k in DEFAULTS])
def test_subcommand_runs_at_its_defaults(tmp_path, capfd, inputs, cmd, sub):
    argv = [cmd, sub, *(a.format(out=tmp_path, **inputs)
                        for a in DEFAULTS[cmd, sub])]
    rc = cli.main(argv)
    out, err = capfd.readouterr()
    assert (rc, err) == (0, "")
    if (cmd, sub) == ("export", "obj"):
        assert out == f"wrote {tmp_path}/p.obj\n"
    else:
        assert isinstance(json.loads(out), dict)

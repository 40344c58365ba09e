"""Every numeric option of every subcommand, at each value of a fixed pool.

cli.main must end each run with exit code 0, 1 or 2, let no exception out
(argparse's own refusal is SystemExit(2)), and write nothing to stderr but
one error line: "error: ..." (exit 1), "usage error: ..." (exit 2), or
argparse's usage text and its "<prog>: error: ..." line.  The pool is
enumerable, so every value meets every option: floats take FLOATS, ints
INTS.  The base runs are small (33x33 strips, curves of 32 points, a bowl
out to r = 5), so the whole sweep takes seconds.
"""

import argparse
import warnings

import numpy as np
import pytest

from translab import cli, grid, io as tio, radial

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
    err = capfd.readouterr().err
    assert rc in (0, 1, 2)
    if rc == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1
        assert err.startswith("error: " if rc == 1 else "usage error: ")

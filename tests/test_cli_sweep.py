"""Every numeric option of every subcommand, at each value of a fixed pool.

Each case runs through the runner of the CLI contract (tests/cli_contract.py,
cli_contract.check) with any exit code of 0, 1 and 2 allowed: no exception
may leave cli.main but argparse's SystemExit(2), and stderr holds nothing
but one error line: "error: ..." for a TranslabError or OSError (exit 1), or
argparse's usage text and its "<prog>: error: ..." line (exit 2); a run
that exits 0 prints a JSON report (export obj prints a line of text), and a
refused run writes no file.  The pool is enumerable, so every value meets
every option: floats take FLOATS, ints INTS.  The base runs are small (33x33
strips, curves of 32 points, a bowl out to r = 5), so the whole sweep takes
seconds.
"""

import argparse

import pytest

import cli_contract
from translab import cli

FLOATS = ["nan", "inf", "-inf", "0", "-1", "5e-324", "1e-300", "1e300",
          "1.8e308"]
INTS = ["0", "-1"]

# base argv of each subcommand; {in}/p.csv is a bowl profile CSV out to
# r = 5, {in}/g.csv a 33x33 grid CSV and {out} a fresh directory
BASE = {
    ("catalog", "residual"): "--kind tilted --theta 0.5 --h 0.05",
    ("radial", "shoot"): "--rmax 5 --h 1e-2 --out {out}/p.csv",
    ("radial", "fit"): "--in {in}/p.csv --rlo 2 --rhi 5",
    ("elliptic", "delta-wing"): "--b 2.2 --nx 33 --ny 33",
    ("elliptic", "continuation"): "--b-start 2.2 --b-end 2.4 --steps 1 "
                                  "--nx 33 --ny 33",
    ("csf", "run"): "--n 32 --out {out}/l.csv",
    ("csf", "compare"): "--n 32",
    ("analyze", "firstvar"): "--in {in}/g.csv",
    ("export", "obj"): "--in {in}/p.csv --out {out}/p.obj",
}

# options that only act with another choice of the base
EXTRA = {
    ("radial", "shoot", "--lam"): "--kind catenoid-upper",
    ("csf", "run", "--a"): "--shape ellipse",
    ("csf", "run", "--b"): "--shape ellipse",
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
    pools = {int: INTS, float: FLOATS}
    return {(cmd, sub, a.option_strings[-1]): pools[a.type]
            for cmd, group in _choices(cli._build_parser())
            for sub, parser in _choices(group)
            for a in parser._actions if a.type in pools}


OPTIONS = _numeric_options()
CASES = [(*key, value) for key, pool in OPTIONS.items() for value in pool] + \
        [(*key, template.format(value)) for key, template in TEMPLATES.items()
         for value in FLOATS]


def test_sweep_tables_name_only_swept_subcommands_and_options():
    # OPTIONS comes from the parser, so a new numeric option is swept as
    # soon as it exists; the hand-written tables must not go stale
    assert {(c, s) for c, s, _ in OPTIONS} | {(c, s) for c, s, _ in TEMPLATES} \
        == set(BASE)
    assert set(EXTRA) <= set(OPTIONS) and not set(TEMPLATES) & set(OPTIONS)


@pytest.mark.parametrize("cmd, sub, option, value", CASES,
                         ids=[" ".join(c) for c in CASES])
def test_numeric_option_ends_in_an_exit_code(tmp_path, capfd, cli_inputs, cmd,
                                             sub, option, value):
    # --opt=value: argparse would take a bare "-inf" for an option name
    argv = " ".join([cmd, sub, BASE[cmd, sub],
                     EXTRA.get((cmd, sub, option), ""), f"{option}={value}"])
    out = "wrote {out}/p.obj" if (cmd, sub) == ("export", "obj") else "json"
    cli_contract.check(argv, None, out, None, inputs=cli_inputs,
                       tmp_path=tmp_path, capfd=capfd)


def test_every_subcommand_has_a_row_at_its_defaults():
    # each gives only its required options and exits 0; csf compare adds
    # --n 64 until the curve distance is sub-quadratic
    parsers = {f"{cmd} {sub}": parser
               for cmd, group in _choices(cli._build_parser())
               for sub, parser in _choices(group)}
    rows = {row[0]: row for row in cli_contract.DEFAULTS}
    assert rows.keys() == parsers.keys()
    for name, (_, argv, code, _, err) in rows.items():
        required = {a.option_strings[-1] for a in parsers[name]._actions
                    if a.required}
        given = {a for a in argv.split() if a.startswith("--")}
        extra = {"--n"} if name == "csf compare" else set()
        assert (given, code, err) == (required | extra, 0, ""), name


# each size bound on its refused side and at it, and every subcommand at its
# defaults: rows of tests/cli_contract.py
globals().update(cli_contract.tests("test_cli_sweep"))

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "translab"


def test_no_assert_in_package():
    # assert vanishes under python -O, so it cannot carry a runtime contract
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_one_refusal_policy():
    # exit 1 is a TranslabError (or an OSError) and exit 2 is argparse's:
    # the library raises no bare ValueError, main catches nothing else, and
    # the CSV kinds are io's alone
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Raise) and node.exc is not None
             and "ValueError" in {n.id for n in ast.walk(node.exc)
                                  if isinstance(n, ast.Name)}]
    assert found == []
    errors = ast.parse((SRC / "errors.py").read_text()).body
    assert {node.name: [b.id for b in node.bases] for node in errors
            if isinstance(node, ast.ClassDef)} == {
        "TranslabError": ["ValueError"],
        "NewtonFailedError": ["TranslabError"]}
    cli = ast.parse((SRC / "cli.py").read_text())
    main, = (node for node in cli.body
             if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = [n.id for handler in ast.walk(main)
              if isinstance(handler, ast.ExceptHandler)
              for n in ast.walk(handler.type) if isinstance(n, ast.Name)]
    assert sorted(caught) == ["OSError", "TranslabError"]
    assert [node.lineno for node in ast.walk(cli)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "# translab-" in node.value] == []


def test_every_exception_type_is_caught_by_name():
    # a type that no except clause names is a message with a class around
    # it: raise TranslabError with that message instead
    defined = {node.name
               for node in ast.parse((SRC / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    caught = {n.id if isinstance(n, ast.Name) else n.attr
              for path in SRC.glob("*.py")
              for handler in ast.walk(ast.parse(path.read_text()))
              if isinstance(handler, ast.ExceptHandler) and handler.type
              for n in ast.walk(handler.type)
              if isinstance(n, (ast.Name, ast.Attribute))}
    assert sorted(defined - caught) == []


def test_csf_imports_only_errors_from_the_package():
    # the flow owns its curve container and polyline kernel, so geom holds
    # graph geometry only
    found = []
    for node in ast.walk(ast.parse((SRC / "csf.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("translab")):
            names = [node.module] if node.module else \
                [a.name for a in node.names]
            found += [f"csf.py:{node.lineno}" for name in names
                      if name.rsplit(".", 1)[-1] != "errors"]
        elif isinstance(node, ast.Import):
            found += [f"csf.py:{node.lineno}" for a in node.names
                      if a.name.startswith("translab")]
    assert found == []


def _imports(nodes, prefix):
    """'file:line' of each import among (path, node) pairs of a name that
    starts with prefix ('from a import b' imports 'a.b')."""
    found = []
    for path, node in nodes:
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found += [f"{path.name}:{node.lineno}" for name in names
                  if name.startswith(prefix)]
    return found


def _module_level(tree):
    """The nodes of tree that run when the module is imported: all but
    function bodies."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_interpolate():
    # profile_to_grid and the continuation resampler interpolate with what
    # they hold (Hermite on the profile's slopes, np.interp in y)
    assert _imports(((path, node) for path in sorted(SRC.glob("*.py"))
                     for node in ast.walk(ast.parse(path.read_text()))),
                    "scipy.interpolate") == []


def test_no_module_imports_scipy_sparse_at_module_level():
    # only the Delta-wing solve factors a sparse matrix: elliptic imports
    # scipy.sparse inside the functions of the solve, after a strip's checks
    assert _imports(((path, node) for path in sorted(SRC.glob("*.py"))
                     for node in _module_level(ast.parse(path.read_text()))),
                    "scipy.sparse") == []


def test_cli_import_leaves_out_scipy_interpolate():
    # importing it would add ~0.3 s to every CLI start-up; nothing in the
    # package uses it, so no import may pull it in indirectly either
    code = "import sys, translab.cli; print('scipy.interpolate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_interpolating_paths_leave_out_scipy_interpolate():
    code = ("import sys; from translab import radial, elliptic\n"
            "radial.profile_to_grid(radial.shoot_bowl(2, 3.0, 1e-2),"
            " -1, 1, -1, 1, 9, 9)\n"
            "elliptic.continuation_in_width(2.0, 2.2, 1, L=6.0, nx=41, ny=33)\n"
            "print('scipy.interpolate' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_shooting_leaves_out_scipy_integrate():
    # the radial integrator is the package's own Dormand-Prince pair
    code = ("import sys; from translab import radial\n"
            "radial.shoot_bowl(2, 3.0, 1e-2)\n"
            "for kind in (radial.RadialKind.CATENOID_UPPER,\n"
            "             radial.RadialKind.CATENOID_LOWER):\n"
            "    radial.shoot_catenoid_wing(2, 1.0, 3.0, 1e-2, kind)\n"
            "print('scipy.integrate' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_only_a_strip_solve_loads_scipy_sparse(tmp_path):
    # every subcommand group but elliptic, a strip refused by its checks
    # and one past the node bound leave scipy.sparse out; a solve loads it
    code = """import json, sys
import translab.cli as cli
from translab import catalog, io
tmp = sys.argv[1]
io.write_grid_csv(catalog.sample_grid(0.0, 0.05), tmp + "/g.csv")
rcs = [cli.main(argv) for argv in (
    ["catalog", "residual", "--out", tmp + "/r.json"],
    ["radial", "shoot", "--rmax", "3", "--h", "1e-2", "--out", tmp + "/p.csv"],
    ["csf", "run", "--n", "32", "--out", tmp + "/l.csv"],
    ["analyze", "sx", "--in", tmp + "/g.csv", "--report", tmp + "/sx.json"],
    ["export", "obj", "--in", tmp + "/g.csv", "--out", tmp + "/g.obj"],
    ["elliptic", "delta-wing", "--b", "nan"],
    ["elliptic", "delta-wing", "--b", "2", "--nx", "100000000", "--ny", "33"])]
before = "scipy.sparse" in sys.modules
rcs.append(cli.main(["elliptic", "delta-wing", "--b", "2.2", "--nx", "33",
                     "--ny", "33", "--report", tmp + "/w.json"]))
print(json.dumps([rcs, before, "scipy.sparse" in sys.modules]))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         check=True, capture_output=True, text=True).stdout
    rcs, before, after = json.loads(out.splitlines()[-1])
    assert rcs == [0, 0, 0, 0, 0, 1, 1, 0]
    assert (before, after) == (False, True)

import ast
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


def test_no_module_imports_scipy_interpolate():
    # profile_to_grid and the continuation resampler interpolate with what
    # they hold (Hermite on the profile's slopes, np.interp in y)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.startswith("scipy.interpolate")]
    assert found == []


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
            "radial.shoot_catenoid(2, 1.0, 3.0, 1e-2)\n"
            "print('scipy.integrate' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"

import math

import numpy as np
import pytest

import oracles
from translab import csf, elliptic, grid, io as tio, radial

B_ROOT2 = math.pi / math.sqrt(2)


@pytest.fixture(autouse=True)
def empty_csv_memo():
    """Each test starts with io's CSV memo empty: a test that reads a file it
    did not write in this test parses it, whatever ran before."""
    tio._memo.clear()


@pytest.fixture(scope="session")
def wing961():
    """Reference Delta-wing at the acceptance resolution."""
    return elliptic.delta_wing(B_ROOT2, L=12.0, nx=961, ny=161)


@pytest.fixture(scope="session")
def wing481():
    """Same wing at half resolution, for refinement ratios."""
    return elliptic.delta_wing(B_ROOT2, L=12.0, nx=481, ny=81)


@pytest.fixture(scope="session")
def circle_log_256():
    return csf.run(csf.make_circle(1.0, 256))


@pytest.fixture(scope="session")
def ellipse_log_512():
    return csf.run(csf.make_ellipse(2.0, 1.0, 512))


def _tiny_wavy_grid(h, amplitude):
    """41x41 nodes at spacing h of amplitude sin(0.7 i) cos(0.5 j)."""
    i, j = np.meshgrid(np.arange(41), np.arange(41), indexing="ij")
    return grid.GridFunction(41, 41, h, h, -20 * h, -20 * h,
                             amplitude * np.sin(0.7 * i) * np.cos(0.5 * j))


def _bad_grid_head(**meta):
    """A 5x5 grid CSV of zeros under a header with meta in place of its own."""
    meta = {"nx": 5, "ny": 5, "hx": 1, "hy": 1, "x0": 0, "y0": 0, **meta}
    return ("# translab-grid " + " ".join(f"{k}={v}" for k, v in meta.items())
            + "\ni,j,x,y,u\n"
            + "".join(f"{i},{j},0,0,0\n" for i in range(5) for j in range(5)))


@pytest.fixture(scope="session")
def cli_inputs(tmp_path_factory):
    """The directory of the input files that the rows of the CLI contract
    (tests/cli_contract.py) read as {in}/<name>."""
    d = tmp_path_factory.mktemp("cli-inputs")
    tio.write_profile_csv(radial.shoot_bowl(2, 5.0, 1e-2), d / "p.csv")
    tio.write_grid_csv(oracles.from_function(
        lambda X, Y: np.sin(X) * np.cos(Y) / 3, -2, 2, -2, 2, 33, 33),
        d / "g.csv")
    tio.write_grid_csv(oracles.from_function(
        lambda X, Y: 1e300 * X, -2, 2, -2, 2, 41, 41), d / "steep.csv")
    # u_xx overflows at h = 1e-155, the slopes too at 1e-160, kappa1 at
    # 1e-150 and the principal-direction norm at 1e-100; nothing at 1e-60
    for h, amplitude in (("1e-155", 0.05), ("1e-160", 0.3), ("1e-150", 0.05),
                         ("1e-100", 0.05), ("1e-60", 0.05)):
        tio.write_grid_csv(_tiny_wavy_grid(float(h), amplitude),
                           d / f"tiny-{h}.csv")
    (d / "huge.csv").write_text(
        "# translab-grid nx=100000000 ny=100000000 hx=1 hy=1 x0=0 y0=0\n"
        "i,j,x,y,u\n0,0,0,0,0\n")
    for key, value in (("x0", "nan"), ("hx", "inf"), ("hx", "1e308"),
                       ("hx", "-1"), ("nx", "abc")):
        (d / f"{key}-{value}.csv").write_text(_bad_grid_head(**{key: value}))
    (d / "grid-2x2.csv").write_text(
        "# translab-grid nx=2 ny=2 hx=1 hy=1 x0=0 y0=0\ni,j,x,y,u\n"
        + "".join(f"{i},{j},0,0,0\n" for i in range(2) for j in range(2)))
    # too small for the two-node margin of Q^2 and the drift Laplacian
    tio.write_grid_csv(oracles.from_function(lambda X, Y: X * Y, -1, 1, -1, 1,
                                             4, 4), d / "grid-4x4.csv")
    (d / "u-nan.csv").write_text(_bad_grid_head().replace("4,4,0,0,0",
                                                          "4,4,0,0,nan"))
    # each row "i,j,0,0,0" loses its last field
    (d / "fields-4.csv").write_text(_bad_grid_head().replace(",0\n", "\n"))
    # p.csv with the height at r = 2 nan and inf, and with the radii 2 and
    # 2.01 swapped
    rows = (d / "p.csv").read_text().splitlines(True)
    for value in ("nan", "inf"):
        r, _, rest = rows[202].split(",", 2)
        (d / f"p-{value}.csv").write_text(
            "".join(rows[:202] + [f"{r},{value},{rest}"] + rows[203:]))
    (d / "p-swapped.csv").write_text(
        "".join(rows[:202] + [rows[203], rows[202]] + rows[204:]))
    # radii past 1e154 and below 1e-162: r^2 overflows or underflows
    for tag, r in (("huge-r", np.geomspace(1.0, 1e200, 16)),
                   ("tiny-r", np.geomspace(1e-300, 1e-290, 16))):
        (d / f"p-{tag}.csv").write_text(
            f"# translab-profile n=2 kind=bowl lam= h=0.1 rows={len(r)}\n"
            "r,u,psi,kappa1,kappa2,H\n"
            + "".join(f"{x!r},{-x!r},-1,0,0,0\n" for x in r.tolist()))
    # h = 1: two samples in [3, 9]
    tio.write_profile_csv(radial.shoot_bowl(2, 20.0, 1.0), d / "bowl-h1.csv")
    heads = {"grid": "# translab-grid nx=5 ny=5 hx=1 hy=1 x0=0 y0=0\n"
                     "i,j,x,y,u\n",
             "profile": "# translab-profile n=2 kind=bowl lam= h=0.1 rows=3\n"
                        "r,u,psi,kappa1,kappa2,H\n"}
    for tag, head in heads.items():
        (d / f"nodata-{tag}.csv").write_text(head)
        (d / f"nodata-{tag}-head.csv").write_text(head.splitlines(True)[0])
    (d / "u.csv").write_bytes(b"\xff\xfe# translab-grid nx=5\n")
    (d / "x.csv").write_text("a,b\n1,2\n")
    (d / "cfg.json").write_text('{"n": 32}')
    return d

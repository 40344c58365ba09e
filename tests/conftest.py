import math

import pytest

from translab import csf, elliptic, io as tio

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

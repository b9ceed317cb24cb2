import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for classical_oracle

from surfpoly.corpus import all_maps
from surfpoly.maps import EmbeddedSubgraph, parse_map, parse_map_file

DATA = Path(__file__).parent.parent / "src" / "surfpoly" / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def maps_up_to_4():
    """Exhaustive: all maps with <= 4 edges up to isomorphism."""
    return all_maps(4)


@pytest.fixture(scope="session")
def tb2():
    """One-vertex two-loop torus map (interleaved loops)."""
    return parse_map((DATA / "tb2.map").read_text())


@pytest.fixture(scope="session")
def sl():
    """Trivial loop on the sphere (two faces)."""
    return parse_map((DATA / "sl.map").read_text())


@pytest.fixture(scope="session")
def sb():
    """Single bridge on the sphere."""
    return parse_map((DATA / "sb.map").read_text())


@pytest.fixture(scope="session")
def theta():
    """Two vertices, three parallel edges, on the sphere."""
    return parse_map((DATA / "theta.map").read_text())


@pytest.fixture(scope="session")
def fig2():
    """Two disjoint parallel essential loops marked in a torus cellulation."""
    return parse_map_file((DATA / "fig2.map").read_text())


@pytest.fixture(scope="session")
def octagon():
    """Standard one-vertex genus-2 map (octagon identification)."""
    return parse_map("sigma: (1 3 2 4 5 7 6 8)\nalpha: (1 2)(3 4)(5 6)(7 8)\n")


@pytest.fixture()
def full():
    return EmbeddedSubgraph.full

import tracemalloc
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from srlb.errors import SrlbError
from srlb.geometry import HyperplaneFamily, generate_hyperplanes, generate_points, normalize_params
from srlb.incidence import IncidenceGraph, build_incidence_graph
from srlb.io import params_to_dict

SRC = Path(__file__).resolve().parents[1] / "src" / "srlb"


def pytest_terminal_summary(terminalreporter):
    """The line count of src/srlb, tracked like a benchmark (no gate); the
    summary, unlike the header, also shows under -q."""
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    terminalreporter.write_line(f"src/srlb: {lines} lines")


def from_rows(*, point_count, hyperplane_count, adjacency):
    """An IncidenceGraph from one sorted point-index list per hyperplane."""
    if len(adjacency) != hyperplane_count:
        raise ValueError(f"{len(adjacency)} rows for {hyperplane_count} hyperplanes")
    indptr = np.cumsum([0, *map(len, adjacency)], dtype=np.int64)
    try:
        indices = np.fromiter(chain.from_iterable(adjacency), np.int64, int(indptr[-1]))
    except OverflowError:
        raise ValueError("adjacency entry out of range") from None
    return IncidenceGraph(point_count=point_count, indptr=indptr, indices=indices)


def as_table(rows, d=None):
    """Point tuples as a read-only (n, d) int64 table, as generate_points
    gives; d is the first row's length unless given, as for no rows."""
    table = np.array(rows, dtype=np.int64).reshape(len(rows), d or len(rows[0]))
    table.flags.writeable = False
    return table


def as_family(hyperplanes, d=None):
    """Hyperplane objects as the HyperplaneFamily that the library takes; d
    is the first one's dimension unless given, as it must be for none."""
    d = d or hyperplanes[0].d
    slopes = np.array([h.a for h in hyperplanes], dtype=np.int64).reshape(len(hyperplanes), d - 1)
    return HyperplaneFamily(slopes, np.array([h.b for h in hyperplanes], dtype=np.int64))


def point_rows(table):
    """A point table as a list of tuples (None stays None), after checking
    that it is a read-only, C-contiguous (n, d) int64 table."""
    if table is None:
        return None
    assert isinstance(table, np.ndarray) and table.dtype == np.int64 and table.ndim == 2
    assert not table.flags.writeable and table.flags.c_contiguous
    return list(map(tuple, table.tolist()))


def reference_instance_to_dict(params, points=None, hyperplanes=None):
    """The JSON document of an instance, absent sections left out, built
    object by object: json.dumps of it is the byte oracle of io.save_instance."""
    doc = {"params": params_to_dict(params)}
    if points is not None:
        doc["points"] = [list(p) for p in point_rows(points)]
    if hyperplanes is not None:
        doc["hyperplanes"] = [{"a": list(h.a), "b": h.b} for h in hyperplanes]
    return doc


@pytest.fixture
def traced_peak():
    """Call fn(*args); return its result (or the SrlbError it raised) and the
    peak bytes that tracemalloc saw it allocate."""

    def run(fn, *args):
        tracemalloc.start()
        try:
            try:
                result = fn(*args)
            except SrlbError as exc:
                result = exc
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run


@pytest.fixture(scope="session")
def d2_instance():
    """The 16-point planar instance: s=2, t=2, A=2, B=4, m=8."""
    params = normalize_params(2, 16, 2)
    points = generate_points(params)
    hyperplanes = generate_hyperplanes(params)
    return params, points, hyperplanes


@pytest.fixture(scope="session")
def d3_instance():
    """The 96-point 3-d instance: s=2, t=4, A=4, B=8, m=128."""
    params = normalize_params(3, 96, 4)
    points = generate_points(params)
    hyperplanes = generate_hyperplanes(params)
    return params, points, hyperplanes


@pytest.fixture(scope="session")
def d2_graph(d2_instance):
    params, points, hyperplanes = d2_instance
    return params, build_incidence_graph(points, hyperplanes)


@pytest.fixture(scope="session")
def d3_graph(d3_instance):
    params, points, hyperplanes = d3_instance
    return params, build_incidence_graph(points, hyperplanes)

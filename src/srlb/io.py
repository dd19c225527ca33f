"""File formats: instance JSON and stats CSV.

Instance documents look like

    {"params": {"d", "s", "t", "n", "A", "B", "m"},
     "points": [[ints]],                      # optional, regenerable
     "hyperplanes": [{"a": [ints], "b": int}]}  # optional, regenerable

Stats CSV rows use the header n,d,query_id,k,nodes_visited,leaves_scanned,
points_tested; per-instance aggregate rows reuse the schema with query_id
"mean" and "max".
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

from .exact import int64_rows
from .geometry import (
    GridPoint,
    Hyperplane,
    InstanceParams,
    generate_hyperplanes,
    generate_points,
)
from .incidence import BoundReport
from .reporting import QueryStats

PathLike = Union[str, Path]

STATS_HEADER = ("n", "d", "query_id", "k", "nodes_visited", "leaves_scanned", "points_tested")


@dataclass(frozen=True)
class InstanceDocument:
    """An instance as stored on disk; points/hyperplanes may be absent."""

    params: InstanceParams
    points: Optional[list[GridPoint]]
    hyperplanes: Optional[list[Hyperplane]]

    def materialized_points(self) -> list[GridPoint]:
        return self.points if self.points is not None else generate_points(self.params)

    def materialized_hyperplanes(self) -> list[Hyperplane]:
        if self.hyperplanes is not None:
            return self.hyperplanes
        return generate_hyperplanes(self.params)


def params_to_dict(params: InstanceParams) -> dict:
    return asdict(params)  # keys in field order: d, s, t, n, A, B, m


def params_from_dict(raw: dict) -> InstanceParams:
    names = [f.name for f in fields(InstanceParams)]
    if not isinstance(raw, dict) or not raw.keys() >= set(names):
        raise ValueError(f"params must be an object with the fields {names}")
    try:
        return InstanceParams(**{name: int(raw[name]) for name in names})
    except TypeError:
        raise ValueError(f"params fields {names} must be integers") from None


def instance_to_dict(
    params: InstanceParams,
    points: Optional[Sequence[GridPoint]] = None,
    hyperplanes: Optional[Sequence[Hyperplane]] = None,
) -> dict:
    doc: dict = {"params": params_to_dict(params)}
    if points is not None:
        doc["points"] = [list(p) for p in points]
    if hyperplanes is not None:
        doc["hyperplanes"] = [{"a": list(h.a), "b": h.b} for h in hyperplanes]
    return doc


def instance_from_dict(doc: dict) -> InstanceDocument:
    """Parse an instance document.

    Stored points and hyperplanes are taken verbatim (only shape-checked):
    a corrupted section must load so the verifiers can flag it.  Each
    section is converted to int64 in one pass, so a value outside the
    64-bit envelope raises ArithmeticOverflow here, and a section of the
    wrong shape, or a hyperplane without 'a' or 'b', raises ValueError.
    """
    if not isinstance(doc, dict) or "params" not in doc:
        raise ValueError("instance document has no 'params' object")
    params = params_from_dict(doc["params"])
    points = None
    if "points" in doc:
        coords = int64_rows(doc["points"], params.d, "point coordinates")
        points = list(map(tuple, coords.tolist()))
    hyperplanes = None
    if "hyperplanes" in doc:
        stored = doc["hyperplanes"]
        if not isinstance(stored, list) or not all(isinstance(h, dict) for h in stored):
            raise ValueError("hyperplanes must be a list of {'a': [...], 'b': ...} objects")
        try:
            slopes = int64_rows([h["a"] for h in stored], params.d - 1, "hyperplane slopes")
            # All offsets as one row, so a non-scalar b is a ValueError too.
            offsets = int64_rows([[h["b"] for h in stored]], len(stored), "hyperplane offsets")[0]
        except KeyError as exc:
            index = next(i for i, h in enumerate(stored) if exc.args[0] not in h)
            raise ValueError(f"hyperplane {index} has no {exc.args[0]!r} key") from None
        # Hyperplane(a, b) rejects coefficients below 1.
        hyperplanes = list(map(Hyperplane, map(tuple, slopes.tolist()), offsets.tolist()))
    return InstanceDocument(params=params, points=points, hyperplanes=hyperplanes)


def save_instance(
    path: PathLike,
    params: InstanceParams,
    points: Optional[Sequence[GridPoint]] = None,
    hyperplanes: Optional[Sequence[Hyperplane]] = None,
) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(params, points, hyperplanes)))


def load_instance(path: PathLike) -> InstanceDocument:
    return instance_from_dict(json.loads(Path(path).read_text()))


def bound_report_to_dict(report: BoundReport) -> dict:
    return {
        "m": report.m,
        "t": report.t,
        "alpha": report.alpha,
        "beta": report.beta,
        "figure_of_merit": _fraction_to_dict(report.space_figure_of_merit),
        "exponent": _fraction_to_dict(report.predicted_query_exponent),
    }


def _fraction_to_dict(f: Fraction) -> dict:
    return {"num": f.numerator, "den": f.denominator}


def format_stat(value: Union[int, float]) -> str:
    """Integers print bare; non-integral aggregates keep full precision."""
    if isinstance(value, int):
        return str(value)
    return str(int(value)) if float(value).is_integer() else repr(float(value))


class StatsCsvWriter:
    """Streaming stats writer: header up front, rows flushed as they come,
    so a failing benchmark still leaves a usable partial CSV behind."""

    def __init__(self, path: PathLike, comment: Optional[str] = None):
        self._fh = open(path, "w", newline="")
        if comment is not None:
            self._fh.write(f"# {comment}\n")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(STATS_HEADER)
        self._fh.flush()

    def write_rows(self, rows: Sequence[dict]) -> None:
        for row in rows:
            self._writer.writerow(
                [row[key] if key == "query_id" else format_stat(row[key])
                 for key in STATS_HEADER]
            )
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "StatsCsvWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_stats_csv(path: PathLike) -> list[dict]:
    """Read stats rows back; '#' comment lines are skipped."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.DictReader(lines)
    if reader.fieldnames is None or tuple(reader.fieldnames) != STATS_HEADER:
        raise ValueError(
            f"unexpected stats header {reader.fieldnames}, want {list(STATS_HEADER)}"
        )
    return list(reader)


def stats_row(
    n: int, d: int, query_id: Union[int, str], k: Union[int, float],
    stats: Optional[QueryStats] = None, **aggregates: Union[int, float],
) -> dict:
    """One CSV row; pass a QueryStats for per-query rows or aggregates by name."""
    row: dict = {"n": n, "d": d, "query_id": query_id, "k": k}
    if stats is not None:
        row["nodes_visited"] = stats.nodes_visited
        row["leaves_scanned"] = stats.leaves_scanned
        row["points_tested"] = stats.points_tested
    row.update(aggregates)
    return row

"""File formats: instance JSON and stats CSV.

Instance documents look like

    {"params": {"d", "s", "t", "n", "A", "B", "m"},
     "points": [[ints]],                      # optional, regenerable
     "hyperplanes": [{"a": [ints], "b": int}]}  # optional, regenerable

save_instance writes them as json.dumps does; load_instance parses those
bytes straight into int64 tables and sends any other JSON through json.

Stats CSV rows use the header n,d,query_id,k,nodes_visited,leaves_scanned,
points_tested; per-instance aggregate rows reuse the schema with query_id
"mean" and "max".
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import SrlbError
from .exact import INT64_MAX, all_integers, int64_rows
from .geometry import HyperplaneFamily, InstanceParams, point_table
from .reporting import QueryStats

PathLike = Union[str, Path]
WRITE_BLOCK = 1 << 16  # rows that save_instance formats with one %

STATS_HEADER = ("n", "d", "query_id", "k", "nodes_visited", "leaves_scanned", "points_tested")


@dataclass(frozen=True, eq=False)
class InstanceDocument:
    """An instance as stored on disk; points/hyperplanes may be absent.

    The points are an (n, d) int64 table, frozen in place, and the
    hyperplanes a HyperplaneFamily.  Documents compare by identity.
    """

    params: InstanceParams
    points: Optional[np.ndarray]
    hyperplanes: Optional[HyperplaneFamily]

    def __post_init__(self) -> None:
        if self.points is not None:
            self.points.flags.writeable = False


def params_to_dict(params: InstanceParams) -> dict:
    return asdict(params)  # keys in field order: d, s, t, n, A, B, m


def params_from_dict(raw: dict) -> InstanceParams:
    names = [f.name for f in fields(InstanceParams)]
    if not isinstance(raw, dict) or not raw.keys() >= set(names):
        raise ValueError(f"params must be an object with the fields {names}")
    if not all_integers(raw[name] for name in names):
        raise ValueError(f"params fields {names} must be integers")
    return InstanceParams(**{name: int(raw[name]) for name in names})


def instance_from_dict(doc: dict) -> InstanceDocument:
    """Parse an instance document.

    Stored points and hyperplanes are taken verbatim: a corrupted section
    must load so the verifiers can flag it.  Each section is converted to
    int64 in one pass; a value outside the 64-bit envelope raises
    ArithmeticOverflow, and a value that is not an integer (all_integers), a
    section of the wrong shape or a hyperplane without 'a' or 'b' ValueError.
    """
    if not isinstance(doc, dict) or "params" not in doc:
        raise ValueError("instance document has no 'params' object")
    params = params_from_dict(doc["params"])
    points = None
    if "points" in doc:
        points = int64_rows(doc["points"], params.d, "point coordinates")
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
        # The family rejects coefficients below 1, naming the first such row.
        hyperplanes = HyperplaneFamily(slopes, offsets)
    return InstanceDocument(params=params, points=points, hyperplanes=hyperplanes)


def _section_rows(d: int) -> dict[str, str]:
    """The row grammar: each section's key, in file order, and its json.dumps row of zeros."""
    return {"points": json.dumps([0] * d), "hyperplanes": json.dumps({"a": [0] * (d - 1), "b": 0})}


def save_instance(
    path: PathLike, params: InstanceParams, points: Optional[np.ndarray] = None,
    hyperplanes: Optional[HyperplaneFamily] = None,
) -> None:
    """Write json.dumps's bytes for the document from int64 tables, WRITE_BLOCK rows
    per %.  Sections no loader takes back raise before the file opens, leaving none."""
    if points is not None and point_table(points).shape[1] != params.d:
        raise ValueError(f"points of width {points.shape[1]} in an instance of d = {params.d}")
    if hyperplanes is not None and len(hyperplanes) and hyperplanes.d != params.d:
        raise ValueError(f"hyperplanes of d = {hyperplanes.d} in an instance of d = {params.d}")
    tables = {"points": points, "hyperplanes": None if hyperplanes is None
              else np.column_stack((hyperplanes.slopes, hyperplanes.offsets))}
    with open(path, "w") as fh:
        fh.write('{"params": ' + json.dumps(params_to_dict(params)))
        for key, zeros in _section_rows(params.d).items():
            row, table = zeros.replace("0", "%d"), tables[key]
            if table is None:
                continue
            fh.write(f', "{key}": [')
            for i, rows in enumerate(np.split(table, range(WRITE_BLOCK, len(table), WRITE_BLOCK))):
                text = ", ".join([row] * len(rows)) % tuple(rows.ravel().tolist())
                fh.write(", " + text if i else text)
            fh.write("]")
        fh.write("}")


def _literal_table(body: memoryview, row: bytes, width: int) -> Optional[np.ndarray]:
    """The ASCII body as a (k, width) int64 table, or None unless it reads as
    k copies of row joined by ", ", each 0 of row an integer literal
    -?(0|[1-9][0-9]*) that fits int64.

    A literal is a maximal run of digits and '-'.  Collapsed to one '0' each,
    the runs must leave exactly the k rows; each run is then checked as a
    literal and converted by Horner's rule in uint64, all runs at once,
    aligned at their last digit.  No Python object is made per value.
    """
    if not len(body):
        return np.zeros((0, width), np.int64)
    b = np.frombuffer(body, np.uint8)
    literal = (b - ord("0") < 10) | (b == ord("-"))  # uint8: b < '0' wraps above 9
    # Where runs start and end (one past their last byte), alternately.
    edges = np.flatnonzero(np.diff(literal, prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    # Each run but its first byte becomes 0xff, which no ASCII body holds.
    skeleton = literal.view(np.uint8) * np.uint8(0xFF)
    del literal
    skeleton |= b
    skeleton[starts] = ord("0")
    k = len(starts) // width
    if skeleton.tobytes().translate(None, b"\xff") != ((row + b", ") * k)[:-2]:
        return None
    del skeleton
    negative = b[starts] == ord("-")
    if np.count_nonzero(b == ord("-")) != np.count_nonzero(negative):
        return None  # a '-' inside a run
    starts += negative  # now each literal's first digit
    digits = ends - starts
    if not (1 <= digits.min() and digits.max() <= 19):  # 19 digits hold any int64
        return None
    if ((b[starts] == ord("0")) & (digits > 1)).any():
        return None  # a leading zero
    places = int(digits.max())
    at = np.subtract(ends, places, out=starts)  # each literal's digit 10**(places - 1)
    value = np.zeros(len(ends), np.uint64)
    for place in range(places - 1, -1, -1):
        value *= 10  # < 10**19 < 2**64: no wrap
        np.add(value, b.take(at, mode="clip") - ord("0"), out=value, where=digits > place)
        at += 1
    if (value > np.uint64(INT64_MAX) + negative).any():
        return None
    np.negative(value, out=value, where=negative)  # wraps -2**63 onto itself
    return value.view(np.int64).reshape(k, width)


def _columnar_document(raw: bytes) -> Optional[InstanceDocument]:
    """raw as save_instance writes it, parsed into int64 tables; None when a
    byte departs from that grammar or a value from int64.

    The grammar: the ASCII text '{"params": ' and a flat params object that
    json parses, then an optional ', "points": [' section and an optional
    ', "hyperplanes": [' section, in that order, each closed by ']', then '}'
    and nothing more.  A section holds rows joined by ", ", the rows
    json.dumps writes for that section with each value an integer literal
    (_literal_table).  A file that fits it is valid JSON, and
    instance_from_dict(json.loads(raw)) gives the same document or raises the
    same error: params first, then a coefficient below 1 (HyperplaneFamily).
    """
    head = b'{"params": '
    if not (raw.startswith(head + b"{") and raw.isascii()):
        return None
    at = raw.find(b"}") + 1
    try:
        params = params_from_dict(json.loads(raw[len(head):at]))
    except (ValueError, SrlbError):  # instance_from_dict raises it again
        return None
    tables = {}
    for key, zeros in _section_rows(params.d).items():
        opener = f', "{key}": ['.encode()
        if not raw.startswith(opener, at):
            continue
        start, row = at + len(opener), zeros.encode()
        # The section ends at its first row end that a ']' follows.
        end = start if raw.startswith(b"]", start) else raw.find(row[-1:] + b"]", start) + 1
        table = _literal_table(memoryview(raw)[start:end], row, params.d) if end >= start else None
        if table is None:
            return None
        tables[key], at = table, end + 1
    if raw[at:] != b"}":
        return None
    hyperplanes = tables.get("hyperplanes")
    if hyperplanes is not None:
        hyperplanes = HyperplaneFamily(hyperplanes[:, :-1], hyperplanes[:, -1])
    return InstanceDocument(params=params, points=tables.get("points"), hyperplanes=hyperplanes)


def load_instance(path: PathLike) -> InstanceDocument:
    """The instance stored at path.

    A file in save_instance's grammar is parsed straight into int64 tables
    (_columnar_document); any other file, a hand-edited one say, is decoded
    as UTF-8 with an optional byte-order mark and goes through
    instance_from_dict(json.loads(text)).  Either way the document, or the
    error, is the one that json path gives.
    """
    raw = Path(path).read_bytes()
    doc = _columnar_document(raw)
    return doc if doc is not None else instance_from_dict(json.loads(raw.decode("utf-8-sig")))


def format_stat(value: Union[int, float]) -> str:
    """Integers print bare; non-integral aggregates keep full precision."""
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
    """Read stats rows back; '#' comment lines and blank rows are skipped, and
    a row of more or fewer fields than the header is a ValueError naming it."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None or tuple(header) != STATS_HEADER:
        raise ValueError(f"unexpected stats header {header}, want {list(STATS_HEADER)}")
    rows = [row for row in reader if row]
    for row in rows:
        if len(row) != len(STATS_HEADER):
            raise ValueError(
                f"stats row {','.join(row)!r} has {len(row)} fields, want {len(STATS_HEADER)}"
            )
    return [dict(zip(STATS_HEADER, row)) for row in rows]


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

"""Layer-by-layer benchmark of the srlb workbench.

Each run drives one workload in one process and one thread, as a closed
loop with one client: every library call starts after the previous one
returns.  For the requested number of seconds, a run repeats the
workload's pass -- the path from a ready instance to its answer -- and
sets the instance up again after each pass (the median is `setup_s`).

Other tenants of a shared machine slow a run down: for stretches of ten
seconds or so, everything runs about 1.5 times slower.  So every pass is
cut into short steps (one query with its check, one stage of the verify
pipeline), each timed on its own, and a step counts with its fastest time
over the run's untraced passes: `wall_s` and `cpu_s` are the sums over the
steps of one pass, and the query latencies are taken over the distinct
queries of the mix, each at its fastest call (a verify request, which
makes several library calls, at the sum of their fastest).

Spans are recorded from this file around each call into a library layer
(`geometry`, `reporting`, `incidence`, `io`, `bench`), kept in memory and
written out at the end.  End-to-end metrics come from untraced passes
only; a traced run alternates untraced and traced passes, so the per-layer
numbers and the tracing overhead come from the same process.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import random
import resource
import statistics
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from srlb import bench, geometry, incidence, io, reporting
from srlb.errors import RangeTooTight

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# A run makes at least this many passes (and one more set-up), so that
# `setup_s` is a median of several set-ups and one slow stretch of a
# shared machine cannot cover all of a step's samples.
MIN_PASSES = 4
SLOPE_TARGET, SLOPE_TOLERANCE = 0.5, 0.1
MAX_FAILURE_MESSAGES = 20

# Pre-flight caps, sized for an 8 GB machine shared with other work.  The
# library checks only the pair-coverage cost; these also bound the Python
# objects that gen/verify materialise (points, hyperplanes) and the n*m
# incidence scan, before anything is allocated.
CAPS = {
    "n": 1 << 20,
    "m": 1 << 20,
    "n_times_m": 2 * 10**9,
    "pair_bytes": 2 << 30,
}
# pair_coverage holds three uint64 arrays of one entry per pair at its peak:
# the per-hyperplane codes, their concatenated copy, and np.diff of it.
PAIR_CODE_BYTES = 3 * 8


class Refused(Exception):
    """An instance failed the pre-flight cost guard or the instance rule."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "slab", "simplex" or "verify": which setup and pass run
    d: int
    sizes: tuple[int, ...]
    # The instance rule: the largest side s whose family keeps A >= min_slopes.
    min_slopes: int
    queries: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        # n = 2^7..2^12 rather than 2^11..2^16 (fitted slope 0.545 instead
        # of 0.51).  The largest tree then takes 0.9 MB, inside the 2 MB
        # private L2 cache of this machine's cores: traversal of a tree in
        # the shared L3 slows down whenever other tenants load it (with
        # 2^9..2^14, a 3.9 MB tree, the p95 latency of runs of the same code
        # spread by 0.39 of the median).  A pass takes about 0.7 s, so each
        # query gets some forty tries in a run.
        Workload("slab_sweep_d2", "slab", d=2, sizes=tuple(2**e for e in range(7, 13)),
                 min_slopes=2),
        # n = 2^10 with 1000 queries rather than 2^14 with 400: a query with
        # its oracle check takes about 1.2 ms instead of 8, so a pass
        # repeats some thirty times in a run.  On a shared machine a query's
        # fastest call needs that many tries: with eight, whole runs of the
        # same code read 1.5 times slower.  The query mix decides the
        # latency percentiles: by a latency model fitted to timed queries,
        # the median query's latency spreads (IQR/median) over ten seeds by
        # about 0.05 with 1600 queries at this size (0.04 with 2400); 1000
        # gives up a little of that for more tries per query.
        Workload("simplex_oracle_d3", "simplex", d=3, sizes=(2**10,), min_slopes=2, queries=1000),
        # A >= 10 selects s = 4, t = 16, m = 4200: pair coverage reaches
        # A**(d-2) = 10.  n = 2^11 rather than 2^14 keeps each timed library
        # call near 0.1 s, short enough to find undisturbed stretches on a
        # shared machine many times within a run (at 2^14 each call takes
        # about 0.9 s, and runs of the same code spread by a third).
        Workload("verify_d3", "verify", d=3, sizes=(2**11,), min_slopes=10),
    )
}


def rich_params(d: int, n: int, min_slopes: int) -> geometry.InstanceParams:
    """Largest side s whose instance keeps A >= min_slopes (A falls as s grows).

    The library's `auto` rule (`largest_valid_richness`) takes the largest
    valid s, which gives A = 1: a family of parallel translates.
    """
    best, s = None, 1
    while True:
        try:
            params = geometry.normalize_params(d, n, s ** (d - 1))
        except RangeTooTight:
            break
        if params.A < min_slopes:
            break
        best, s = params, s + 1
    if best is None:
        raise Refused(f"no instance with A >= {min_slopes} for d={d}, n={n}")
    return best


def cost_estimate(params: geometry.InstanceParams) -> dict:
    """Sizes of every expensive phase, from the parameters alone."""
    pairs = params.m * (params.t * (params.t - 1) // 2)
    return {
        "n": params.n,
        "m": params.m,
        "n_times_m": params.n * params.m,
        "pairs": pairs,
        "pair_bytes": PAIR_CODE_BYTES * pairs,
    }


def refuse_if_too_large(params: geometry.InstanceParams) -> dict:
    estimate = cost_estimate(params)
    over = [f"{key} = {estimate[key]} > {cap}" for key, cap in CAPS.items() if estimate[key] > cap]
    if over:
        raise Refused(f"instance {io.params_to_dict(params)} refused: {', '.join(over)}")
    return estimate


class Tracer:
    """In-memory spans [id, parent, root, name, start_ns, end_ns] of one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = sid if parent is None else self.spans[parent][2]
        span = [sid, parent, root, name, time.perf_counter_ns(), 0]
        self.spans.append(span)
        self._stack.append(sid)
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args):
        if not self.enabled:
            return fn(*args)
        span = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(span)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def self_ns(self) -> dict[int, int]:
        """Span id -> duration minus the time its child spans cover."""
        covered: dict[int, int] = defaultdict(int)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return {s[0]: s[5] - s[4] - covered[s[0]] for s in self.spans}

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, parent, root, name, start, end in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "parent": parent, "root": root,
                    "name": name, "start_ns": start, "end_ns": end,
                }) + "\n")


@dataclass
class PassRecord:
    traced: bool
    wall_s: float
    ops: int
    counts: Counter
    step_wall_ns: dict
    step_cpu_ns: dict
    query_ns: dict


class Run:
    """State of one benchmark run: checks, counters, timings and spans."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out_dir = out_dir
        self.tr = Tracer(out_dir.name)
        self.checks = 0
        self.failed = 0
        self.failures: list[str] = []  # the first few failure messages
        self.instances: dict[int, dict] = {}
        self.setups: list[tuple[float, Counter]] = []
        self.passes: list[PassRecord] = []
        self.counts: Counter = Counter()
        self.step_wall_ns: dict = {}
        self.step_cpu_ns: dict = {}
        self.query_ns: dict = {}
        self.fit_slope: Optional[float] = None

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_MESSAGES:
                self.failures.append(message)

    # -- instances ---------------------------------------------------------

    def instance(self, n: int) -> geometry.InstanceParams:
        """Resolve and guard an instance before anything is generated."""
        params = rich_params(self.w.d, n, self.w.min_slopes)
        estimate = refuse_if_too_large(params)
        self.check(
            params.A >= max(2, self.w.min_slopes),
            f"n={n}: A = {params.A} < {max(2, self.w.min_slopes)} (parallel-translate family)",
        )
        self.instances.setdefault(n, {**io.params_to_dict(params), "estimate": estimate})
        return params

    @contextmanager
    def step(self, key):
        """Time one step of a pass, wall clock and process CPU."""
        w0, c0 = time.perf_counter_ns(), time.process_time_ns()
        yield
        self.step_cpu_ns[key] = time.process_time_ns() - c0
        self.step_wall_ns[key] = time.perf_counter_ns() - w0

    def query(self, tree, q, key):
        """reporting.query with its latency and counters."""
        t0 = time.perf_counter_ns()
        reported, stats = self.tr.call("reporting.query", reporting.query, tree, q)
        self.query_ns[key, "query"] = time.perf_counter_ns() - t0
        c = self.counts
        c["reporting.query.calls"] += 1
        c["reporting.query.nodes_visited"] += stats.nodes_visited
        c["reporting.query.leaves_scanned"] += stats.leaves_scanned
        c["reporting.query.points_tested"] += stats.points_tested
        c["reporting.query.points_reported"] += stats.points_reported
        return reported, stats

    # -- phases ------------------------------------------------------------

    def setup_once(self, traced: bool):
        self.tr.enabled = traced
        self.counts = Counter()
        # Each phase starts with empty young generations, so the collections
        # its own allocations trigger do not depend on the phase before it.
        gc.collect()
        t0 = time.perf_counter()
        with self.tr.span("setup"):
            state = SETUP[self.w.kind](self)
        self.setups.append((time.perf_counter() - t0, self.counts))
        self.tr.enabled = False
        return state

    def pass_once(self, state, traced: bool) -> None:
        self.tr.enabled = traced
        self.counts = Counter()
        self.step_wall_ns, self.step_cpu_ns, self.query_ns = {}, {}, {}
        gc.collect()
        t0, c0 = time.perf_counter_ns(), time.process_time_ns()
        with self.tr.span("pass"):
            ops = PASS[self.w.kind](self, state)
        wall, cpu = time.perf_counter_ns() - t0, time.process_time_ns() - c0
        self.tr.enabled = False
        # What no step covers (loop overhead) is a step of its own.
        self.step_wall_ns["rest"] = wall - sum(self.step_wall_ns.values())
        self.step_cpu_ns["rest"] = cpu - sum(self.step_cpu_ns.values())
        self.passes.append(PassRecord(
            traced, wall / 1e9, ops, self.counts, self.step_wall_ns, self.step_cpu_ns, self.query_ns,
        ))

    def execute(self) -> None:
        # One set-up before the first pass and one after each pass, so that
        # `setup_s` is a median over the whole run, not over its first
        # second.  Every pass uses the first set-up: building the instance
        # anew for each pass made the slab passes about 8% slower.
        state = self.setup_once(self.trace)
        start = time.perf_counter()
        while True:
            # A traced run alternates untraced and traced passes.
            self.pass_once(state, traced=self.trace and len(self.passes) % 2 == 1)
            self.setup_once(self.trace)
            rounds, elapsed = len(self.passes), time.perf_counter() - start
            if rounds >= MIN_PASSES and elapsed * (rounds + 1) / rounds > self.seconds:
                break
        self.check_counts()

    # -- correctness of counters -------------------------------------------

    def totals(self) -> Counter:
        """Counters of the first setup and the first pass (all must repeat)."""
        totals = Counter(self.setups[0][1]) if self.setups else Counter()
        if self.passes:
            totals.update(self.passes[0].counts)
        return totals

    def check_counts(self) -> None:
        for label, records in (("setup", [s[1] for s in self.setups]),
                               ("pass", [p.counts for p in self.passes])):
            for i, counts in enumerate(records[1:], 1):
                self.check(counts == records[0], f"{label} {i} counters differ from {label} 0")
        expected = expected_counts(self.w.name, self.seed)
        actual = self.totals()
        for key, value in expected.items():
            self.check(actual.get(key) == value, f"{key} = {actual.get(key)}, recorded {value}")


# -- workloads --------------------------------------------------------------


def slab_setup(run: Run):
    tr = run.tr
    params = [run.instance(n) for n in run.w.sizes]
    instances = []
    for p in params:
        points = tr.call("geometry.generate_points", geometry.generate_points, p)
        tree = tr.call("reporting.build_kdtree", reporting.build_kdtree, points)
        run.counts["reporting.build_kdtree.nodes"] += tree.node_count
        instances.append((p, tree))
    return instances


def slab_pass(run: Run, instances) -> int:
    """The `srlb bench` + `srlb fit` path: every family hyperplane as a slab."""
    tr = run.tr
    csv_path = run.out_dir / "stats.csv"
    with run.step("open"):
        comment = f"perfbench {run.w.name} seed={run.seed}"
        writer = tr.call("io.stats_csv", io.StatsCsvWriter, csv_path, comment)
    ops = 0
    for p, tree in instances:
        rows = []
        with run.step(("ids", p.n)):
            ids = tr.call("bench.select_query_ids", bench.select_query_ids, p.m, run.seed)
        for qid in ids:
            with run.step((p.n, qid)):
                h = tr.call("geometry.hyperplane_at", geometry.hyperplane_at, p, qid)
                q = tr.call("reporting.slab_query_for", reporting.slab_query_for, h)
                reported, stats = run.query(tree, q, (p.n, qid))
                run.check(
                    len(reported) == stats.points_reported == p.t,
                    f"n={p.n} slab {qid}: k = {len(reported)}, t = {p.t}",
                )
                row = tr.call("io.stats_csv", io.stats_row, p.n, p.d, qid, stats.points_reported, stats)
                tr.call("io.stats_csv", writer.write_rows, [row])
                rows.append(row)
            ops += 1
        with run.step(("aggregate", p.n)):
            aggregates = tr.call("bench.aggregate_rows", bench.aggregate_rows, rows)
            tr.call("io.stats_csv", writer.write_rows, aggregates)
    with run.step("fit"):
        tr.call("io.stats_csv", writer.close)
        rows = tr.call("io.stats_csv", io.read_stats_csv, csv_path)
        fit = tr.call("bench.fit_from_rows", bench.fit_from_rows, rows)
        run.check(
            abs(fit.slope - SLOPE_TARGET) <= SLOPE_TOLERANCE,
            f"fitted slope {fit.slope:.4f} outside {SLOPE_TARGET} +/- {SLOPE_TOLERANCE}",
        )
    run.counts["bench.fit_from_rows.points_used"] += fit.points_used
    run.fit_slope = fit.slope
    return ops


def simplex_setup(run: Run):
    tr = run.tr
    p = run.instance(run.w.sizes[0])
    points = tr.call("geometry.generate_points", geometry.generate_points, p)
    tree = tr.call("reporting.build_kdtree", reporting.build_kdtree, points)
    run.counts["reporting.build_kdtree.nodes"] += tree.node_count
    return p, points, tree


def simplex_pass(run: Run, state) -> int:
    """Seeded random simplex queries, each checked against the brute-force oracle."""
    tr = run.tr
    p, points, tree = state
    with run.step("generate"):
        queries = tr.call(
            "reporting.random_simplex_queries", reporting.random_simplex_queries,
            p, run.w.queries, random.Random(run.seed),
        )
    for i, q in enumerate(queries):
        with run.step(i):
            reported, _ = run.query(tree, q, i)
            truth = tr.call("reporting.brute_force_query", reporting.brute_force_query, points, q)
            run.check(
                len(reported) == len(truth) and set(reported) == set(truth),
                f"query {i}: tree reports {len(reported)} points, oracle {len(truth)}",
            )
    run.counts["reporting.brute_force_query.calls"] += len(queries)
    run.counts["reporting.brute_force_query.points_scanned"] += len(queries) * len(points)
    return len(queries)


def verify_setup(run: Run):
    """The `srlb gen` path: generate the instance and save it as JSON."""
    tr = run.tr
    p = run.instance(run.w.sizes[0])
    points = tr.call("geometry.generate_points", geometry.generate_points, p)
    hyperplanes = tr.call("geometry.generate_hyperplanes", geometry.generate_hyperplanes, p)
    path = run.out_dir / "instance.json"
    tr.call("io.save_instance", io.save_instance, path, p, points, hyperplanes)
    run.counts["io.save_instance.bytes"] += path.stat().st_size
    return p, path


def verify_pass(run: Run, state) -> int:
    """The `srlb verify` path: load, incidence graph, richness, pair coverage, containment.

    The whole pass is one verify request, the query of this workload.
    """
    tr = run.tr
    p, path = state
    with run.step("load"):
        doc = tr.call("io.load_instance", io.load_instance, path)
    with run.step("graph"):
        graph = tr.call(
            "incidence.build_incidence_graph", incidence.build_incidence_graph,
            doc.points, doc.hyperplanes,
        )
    with run.step("histogram"):
        histogram = tr.call("incidence.richness_histogram", incidence.richness_histogram, graph)
    with run.step("coverage"):
        max_common, _ = tr.call("incidence.pair_coverage", incidence.pair_coverage, graph)
    with run.step("containment"), tr.span("verify.containment"):
        top = (p.s,) * (p.d - 1)
        containment = all(1 <= geometry.eval_hyperplane(h, top) <= p.rows for h in doc.hyperplanes)
    for stage in ("load", "graph", "histogram", "coverage", "containment"):
        run.query_ns["request", stage] = run.step_wall_ns[stage]
    run.check(doc.params == p, f"loaded params {doc.params} differ from saved {p}")
    run.check(histogram == {p.t: p.m}, f"richness histogram {histogram}, want {{{p.t}: {p.m}}}")
    run.check(
        max_common == p.pair_coverage_bound() == p.A ** (p.d - 2),
        f"max pair coverage {max_common}, want A**(d-2) = {p.A ** (p.d - 2)}",
    )
    run.check(containment, "a hyperplane leaves the grid at the top base corner")
    pairs = sum(len(row) * (len(row) - 1) // 2 for row in graph.adjacency)
    c = run.counts
    c["incidence.build_incidence_graph.pairs_tested"] += len(doc.points) * len(doc.hyperplanes)
    c["incidence.pair_coverage.pairs"] += pairs
    c["incidence.pair_coverage.bytes_computed"] += PAIR_CODE_BYTES * pairs
    c["incidence.max_pair_coverage"] += max_common
    return 1


SETUP = {"slab": slab_setup, "simplex": simplex_setup, "verify": verify_setup}
PASS = {"slab": slab_pass, "simplex": simplex_pass, "verify": verify_pass}


# -- metrics ----------------------------------------------------------------


def load_json(name: str) -> dict:
    return json.loads((HERE / name).read_text())


def expected_counts(workload: str, seed: int) -> dict:
    recorded = load_json("expectations.json")["counts"].get(workload, {})
    return {**recorded.get("any_seed", {}), **recorded.get("by_seed", {}).get(str(seed), {})}


def percentile(values: list, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def fastest(records: list[dict]) -> dict:
    """Per key, the smallest value over the passes' records."""
    best: dict = {}
    for record in records:
        for key, value in record.items():
            best[key] = min(best.get(key, value), value)
    return best


def end_to_end(run: Run) -> dict:
    untraced = [p for p in run.passes if not p.traced]
    wall_s = sum(fastest([p.step_wall_ns for p in untraced]).values()) / 1e9
    per_query: dict = defaultdict(int)
    for (query, _), ns in fastest([p.query_ns for p in untraced]).items():
        per_query[query] += ns
    latency = list(per_query.values())
    return {
        "setup_s": statistics.median(s[0] for s in run.setups),
        "wall_s": wall_s,
        "cpu_s": sum(fastest([p.step_cpu_ns for p in untraced]).values()) / 1e9,
        "query_p50_ms": percentile(latency, 50) / 1e6,
        "query_p95_ms": percentile(latency, 95) / 1e6,
        "queries_per_s": untraced[0].ops / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run: Run, spec: dict) -> dict:
    """Per-layer self times (median over the traced setups or passes that
    call the layer), deterministic counts, and ratios of the two."""
    self_ns = run.tr.self_ns()
    by_layer: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    durations: dict[str, list[int]] = defaultdict(list)
    for sid, _, root, name, start, end in run.tr.spans:
        by_layer[name][root] += self_ns[sid]
        durations[name].append(end - start)

    def self_s(name: str) -> float:
        roots = by_layer.get(name)
        return statistics.median(roots.values()) / 1e9 if roots else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = run.totals()
    layers = [m["name"].removesuffix(".self_s") for m in spec["per_layer"]
              if m["name"].endswith(".self_s")]
    out = {f"{name}.self_s": self_s(name) for name in layers}
    traced, untraced = (
        sum(fastest([p.step_wall_ns for p in run.passes if p.traced is flag]).values())
        for flag in (True, False)
    )
    bf = durations.get("reporting.brute_force_query")
    out.update({
        "reporting.build_kdtree.nodes": c["reporting.build_kdtree.nodes"],
        "reporting.build_kdtree.us_per_node":
            ratio(out["reporting.build_kdtree.self_s"] * 1e6, c["reporting.build_kdtree.nodes"]),
        "reporting.query.calls": c["reporting.query.calls"],
        "reporting.query.nodes_visited": c["reporting.query.nodes_visited"],
        "reporting.query.leaves_scanned": c["reporting.query.leaves_scanned"],
        "reporting.query.points_tested": c["reporting.query.points_tested"],
        "reporting.query.points_reported": c["reporting.query.points_reported"],
        "reporting.query.us_per_visit":
            ratio(out["reporting.query.self_s"] * 1e6, c["reporting.query.nodes_visited"]),
        "reporting.query.tested_per_reported":
            ratio(c["reporting.query.points_tested"], c["reporting.query.points_reported"]),
        "reporting.brute_force_query.p50_ms": percentile(bf, 50) / 1e6 if bf else 0.0,
        "reporting.brute_force_query.ns_per_point":
            ratio(out["reporting.brute_force_query.self_s"] * 1e9,
                  c["reporting.brute_force_query.points_scanned"]),
        "incidence.build_incidence_graph.pairs_tested":
            c["incidence.build_incidence_graph.pairs_tested"],
        "incidence.build_incidence_graph.ns_per_pair":
            ratio(out["incidence.build_incidence_graph.self_s"] * 1e9,
                  c["incidence.build_incidence_graph.pairs_tested"]),
        "incidence.pair_coverage.pairs": c["incidence.pair_coverage.pairs"],
        "incidence.pair_coverage.ns_per_pair":
            ratio(out["incidence.pair_coverage.self_s"] * 1e9, c["incidence.pair_coverage.pairs"]),
        "incidence.pair_coverage.bytes_computed": c["incidence.pair_coverage.bytes_computed"],
        "io.save_instance.bytes": c["io.save_instance.bytes"],
        "trace.overhead_frac": ratio(traced - untraced, untraced),
    })
    return out


# -- provenance ---------------------------------------------------------------


def git_revision() -> str:
    """HEAD of the checkout, read without starting git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the library sources, which identifies the code when git does not."""
    digest = sha256()
    for path in sorted((ROOT / "src" / "srlb").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(run: Run, trace_path: Optional[Path]) -> dict:
    return {
        "workload": run.w.name,
        "seed": run.seed,
        "seconds": run.seconds,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "load": "closed loop, one client, one thread",
        "trace_file": trace_path and str(
            trace_path.relative_to(ROOT) if trace_path.is_relative_to(ROOT) else trace_path
        ),
        "instances": list(run.instances.values()),
    }


# -- entry ----------------------------------------------------------------


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def execute(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run one workload; return its report, with the final JSON line as 'result'."""
    out_dir.mkdir(parents=True, exist_ok=True)
    run = Run(workload, seed, seconds, trace, out_dir)
    error = None
    try:
        run.execute()
    except Refused as exc:
        error = f"refused: {exc}"
    except Exception:  # any library error is a failed operation, reported below
        error = traceback.format_exc()
    for inputs in ("instance.json", "stats.csv"):
        (out_dir / inputs).unlink(missing_ok=True)

    failed = run.failed
    attempted = max(run.checks, 1)
    if error is not None:
        attempted, failed = attempted + 1, failed + 1
    spec = benchmark_spec()
    metrics: dict = {}
    if error is None and run.passes:
        metrics.update(end_to_end(run))
        if trace:
            metrics.update(per_layer(run, spec))
    trace_path = None
    if trace:
        trace_path = out_dir / "trace.jsonl"
        run.tr.write(trace_path)
    correct = error is None and failed == 0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    untraced = [p for p in run.passes if not p.traced]
    report = {
        "provenance": provenance(run, trace_path),
        "failed_frac": {"value": failed / attempted, "failed": failed,
                        "attempted": attempted},
        "samples": {"setups": len(run.setups), "passes": len(untraced),
                    "traced_passes": len(run.passes) - len(untraced),
                    "distinct_queries": len({q for q, _ in run.passes[0].query_ns}) if run.passes else 0},
        "setup_wall_s": [round(s[0], 6) for s in run.setups],
        "pass_wall_s": [(round(p.wall_s, 6), "traced" if p.traced else "untraced") for p in run.passes],
        "counts": dict(sorted(run.totals().items())),
        "fit_slope": run.fit_slope,
        "units": {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]},
        "metrics": metrics,
        "failures": run.failures,
        "error": error,
        "result": result,
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=1))
    return report

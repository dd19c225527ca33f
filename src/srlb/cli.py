"""Command-line front end: gen, verify, bench, fit, bound.

Exit codes: 0 success, 2 validation failure (bad arguments, invalid
parameters, failed verification), 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

from . import bench as bench_mod
from . import incidence, io, reporting
from .errors import InstanceTooLarge, SrlbError
from .exact import check_int64, integer
from .geometry import generate_hyperplanes, generate_points, normalize_params

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


def cmd_gen(args: argparse.Namespace) -> int:
    params = normalize_params(args.d, args.n, args.t)
    # Write only instances that verify can check.
    incidence.charge_verify(params)
    out = Path(args.out or f"instance_d{params.d}_n{params.n}_t{params.t}.json")
    io.save_instance(out, params, generate_points(params), generate_hyperplanes(params))
    print(json.dumps({
        "params": io.params_to_dict(params),
        "bound": incidence.bound_report(params),
        "out": str(out),
    }))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    doc = io.load_instance(args.instance)
    report = incidence.verify_instance(doc)
    print(json.dumps(report))
    passed = report["richness_exact"] and report["k2beta_free"] and report["containment_ok"]
    return EXIT_OK if passed else EXIT_VALIDATION


def cmd_bench(args: argparse.Namespace) -> int:
    plan = bench_mod.ExperimentPlan(  # the pre-flight, before the file opens
        d=args.d,
        sizes=tuple(integer(v, "--sizes") for v in args.sizes.split(",")),
        t_rule=args.t_rule,
        seed=args.seed,
        leaf_capacity=args.leaf_capacity,
    )
    stamp = datetime.now(timezone.utc).isoformat()
    comment = (
        f"srlb bench {stamp} d={plan.d} t_rule={plan.t_rule}"
        f" seed={plan.seed} leaf_capacity={plan.leaf_capacity}"
    )
    size_rows: dict = {}  # this size's rows by query id
    with io.StatsCsvWriter(args.out, comment=comment) as writer:
        for params, row in bench_mod.run_plan(plan):
            writer.write_rows([row])
            size_rows[row["query_id"]] = row
            if row["query_id"] == "max":
                print(
                    " ".join(f"{key}={value}" for key, value in io.params_to_dict(params).items()),
                    f"queries={len(size_rows) - 2}"
                    f" mean_visits={io.format_stat(size_rows['mean']['nodes_visited'])}"
                    f" max_visits={io.format_stat(row['nodes_visited'])}"
                )
                size_rows = {}
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    rows = io.read_stats_csv(args.csv)
    print(json.dumps(dataclasses.asdict(bench_mod.fit_from_rows(rows))))
    return EXIT_OK


def cmd_bound(args: argparse.Namespace) -> int:
    params = normalize_params(args.d, args.n, args.t)
    space = params.n if args.space == "n" else integer(args.space, "--space")
    check_int64(space, "--space")
    if space < 1:
        raise ValueError(f"hypothetical space must be >= 1, got {space}")
    implied = (params.n**2 / space) ** ((params.d - 1) / params.d)
    doc = incidence.bound_report(params)
    doc["space"] = space
    doc["implied_query_bound"] = float(f"{implied:.6g}")
    print(json.dumps(doc))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srlb",
        description=(
            "Workbench for adversarial point/hyperplane instances: generate,"
            " verify, benchmark, and evaluate the space/query trade-off."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("-d", type=integer, required=True, help="dimension (>= 2)")
    gen.add_argument("-n", type=integer, required=True, help="requested point count")
    gen.add_argument("-t", type=integer, required=True, help="requested richness")
    gen.add_argument("--out", help="output path (default instance_d<d>_n<n>_t<t>.json)")
    gen.set_defaults(func=cmd_gen)

    verify = sub.add_parser("verify", help="verify an instance file")
    verify.add_argument("instance", help="instance JSON path")
    verify.set_defaults(func=cmd_verify)

    run = sub.add_parser("bench", help="benchmark slab queries over a size sweep")
    run.add_argument("-d", type=integer, required=True)
    run.add_argument("--sizes", required=True, help="comma-separated n values, increasing")
    run.add_argument("--t-rule", default="auto", help="'auto' or 'fixed:<t>'")
    run.add_argument("--seed", type=integer, default=0, help="query sampling seed")
    run.add_argument("--leaf-capacity", type=integer, default=reporting.DEFAULT_LEAF_CAPACITY)
    run.add_argument("--out", required=True, help="stats CSV output path")
    run.set_defaults(func=cmd_bench)

    fit = sub.add_parser("fit", help="fit the query exponent from a stats CSV")
    fit.add_argument("csv", help="stats CSV path")
    fit.set_defaults(func=cmd_fit)

    bound = sub.add_parser("bound", help="evaluate the space bound for given params")
    bound.add_argument("-d", type=integer, required=True)
    bound.add_argument("-n", type=integer, required=True)
    bound.add_argument("-t", type=integer, required=True)
    bound.add_argument(
        "--space",
        default="n",
        help="hypothetical space S for the implied query bound (integer or 'n')",
    )
    bound.set_defaults(func=cmd_bound)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InstanceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SrlbError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

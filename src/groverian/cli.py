"""Command-line surface: pmax, groverian, grover, verify, and sweep.

Every run prints one JSON document (the run report) with floats at 17
significant digits; identical command lines with identical seeds produce
byte-identical results records (the wall-clock ``duration_s`` field is the
only exception).  Each ``cmd_*`` returns its ``results`` record alone;
``main`` owns the rest of the report (the command line, the seed and the
flags the command accepts, the duration), writes it, and maps errors to
exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

from . import __version__
from .errors import GroverianError, NonFiniteResult, OutOfRange, TooLarge
from .families import SWEEP_FAMILIES, integer, real, resolve_density, resolve_state
from .fileio import canonical_json
from .grover import (
    OracleSpec,
    iteration_bound,
    optimal_iterations,
    pmax_simulated,
    run_grover,
)
from .measures import groverian, groverian_mixed
from .product_opt import OptimizerConfig, pmax_overlap
from .statevector import qubit_shape, seed_sequence
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _add_flags(
    parser: argparse.ArgumentParser, *, seed: bool = False, optimizer: bool = False
) -> None:
    """The seed and optimizer flags go only to the commands that read them."""
    if seed:
        parser.add_argument("--seed", type=integer, default=7, help="base seed (default 7)")
    if optimizer:
        parser.add_argument("--restarts", type=integer, default=OptimizerConfig.restarts)
        parser.add_argument("--tol", type=real, default=OptimizerConfig.tol)
        parser.add_argument("--max-sweeps", type=integer, default=OptimizerConfig.max_sweeps)
    parser.add_argument("--output", choices=("json", "csv"), default="json")
    parser.add_argument("--out", metavar="FILE", help="write the report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groverian",
        description="Search-success simulation and the product-overlap "
        "entanglement measure for multi-qudit registers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pmax", help="maximal squared product overlap of a state")
    p.add_argument("--state", required=True, help="family spec or state file")
    _add_flags(p, seed=True, optimizer=True)

    p = sub.add_parser("groverian", help="entanglement measure of a state")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", help="family spec or state file")
    group.add_argument("--mixed", help="density family spec or density file")
    _add_flags(p, seed=True, optimizer=True)

    p = sub.add_parser("grover", help="run search iterations and report P(k)")
    p.add_argument("--state", required=True, help="initial state (family or file)")
    marked = p.add_mutually_exclusive_group(required=True)
    marked.add_argument("--marked", help="comma-separated marked basis indices")
    marked.add_argument(
        "--marked-count", type=integer, help="mark the first r basis states"
    )
    p.add_argument(
        "--iterations", default="auto", help="iteration count, or 'auto' (default)"
    )
    _add_flags(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=tuple(SUITES), default="all")
    _add_flags(p, seed=True)

    p = sub.add_parser("sweep", help="tabulate a measure over a family range")
    p.add_argument(
        "--measure",
        choices=("pmax", "groverian", "grover-success", "pmax-gap"),
        required=True,
    )
    p.add_argument(
        "--family",
        choices=tuple(SWEEP_FAMILIES),
        default=None,
        help="state family swept over the site range",
    )
    p.add_argument(
        "--sites",
        default="2:6",
        help="inclusive qubit-count range lo:hi (default 2:6)",
    )
    _add_flags(p, seed=True, optimizer=True)
    return parser


def _to_csv(results: dict) -> str:
    rows = results.get("rows")
    if rows is not None:
        header = results["columns"]
        out = [",".join(header)]
        for row in rows:
            out.append(",".join(canonical_json(v) for v in row))
        return "\n".join(out)
    out = ["key,value"]
    for key, value in results.items():
        if isinstance(value, (int, float, str, bool)):
            out.append(f"{key},{canonical_json(value)}")
    return "\n".join(out)


def _factor_pairs(product) -> list:
    return [
        [[z.real, z.imag] for z in factor] for factor in product.factors
    ]


def cmd_pmax(args) -> dict:
    state = resolve_state(args.state)
    result = pmax_overlap(state, args.cfg)
    return {
        "dims": list(state.shape.dims),
        "value": result.value,
        "argmax_factors": _factor_pairs(result.argmax),
        "restarts_used": result.restarts_used,
        "sweeps": result.sweeps,
        "converged": result.converged,
        "best_per_restart": list(result.best_per_restart),
    }


def cmd_groverian(args) -> dict:
    if args.mixed:
        rho = resolve_density(args.mixed)
        measure = groverian_mixed(rho, args.cfg)
        dims = list(rho.shape.dims)
    else:
        state = resolve_state(args.state)
        measure = groverian(state, args.cfg)
        dims = list(state.shape.dims)
    return {"dims": dims, **dataclasses.asdict(measure)}


def cmd_grover(args) -> dict:
    state = resolve_state(args.state)
    shape = state.shape
    if args.marked is not None:
        try:
            marked = [integer(x) for x in args.marked.split(",")]
        except ValueError:
            raise OutOfRange(f"bad --marked list {args.marked!r}")
    else:
        if not 1 <= args.marked_count <= shape.total:
            raise OutOfRange(f"--marked-count must lie in 1..{shape.total}")
        marked = list(range(args.marked_count))
    oracle = OracleSpec(shape, marked)
    if args.iterations == "auto":
        iterations = optimal_iterations(shape, oracle)
    else:
        try:
            iterations = integer(args.iterations)
        except ValueError:
            raise OutOfRange(f"bad --iterations value {args.iterations!r}")
    run = run_grover(state, oracle, iterations)
    return {
        "dims": list(shape.dims),
        "marked": list(oracle.marked),
        "iterations": run.iterations,
        "iteration_bound": iteration_bound(shape.total, oracle.count),
        "final_probability": run.prob_curve[-1],
        "columns": ["k", "P"],
        "rows": [[k, p] for k, p in enumerate(run.prob_curve)],
    }


def cmd_verify(args) -> tuple[dict, list[str]]:
    results = run_suite(args.suite, args.seed)
    lines = [r.line() for r in results]
    passed = all(r.passed for r in results)
    lines.append(
        f"{'PASS' if passed else 'FAIL'}  suite={args.suite} "
        f"checks={len(results)} failures={sum(not r.passed for r in results)}"
    )
    return {
        "suite": args.suite,
        "passed": passed,
        "checks": [dataclasses.asdict(r) for r in results],
    }, lines


def cmd_sweep(args) -> dict:
    family = args.family or {
        "grover-success": "uniform",
        "pmax-gap": "random",
        "groverian": "ghz",
        "pmax": "ghz",
    }[args.measure]
    lo, _, hi = args.sites.partition(":")
    try:
        lo, hi = integer(lo), integer(hi or lo)
    except ValueError:
        raise OutOfRange(f"bad --sites range {args.sites!r}")
    if lo < 2 or hi < lo:
        raise OutOfRange("--sites range must satisfy 2 <= lo <= hi")
    qubit_shape(hi)  # an oversize range fails before the first row

    measure = args.measure
    rows = []
    for index, n in enumerate(range(lo, hi + 1)):
        total = 2**n
        state, p_ref = SWEEP_FAMILIES[family](n, seed_sequence(args.seed, 77, index))
        cfg = dataclasses.replace(args.cfg, seed=args.seed + index)
        if measure == "grover-success":
            oracle = OracleSpec(state.shape, (0,))
            m = optimal_iterations(state.shape, oracle)
            value = run_grover(state, oracle, m).prob_curve[-1]
            # 1 - P(m) <= 1/N holds for the uniform start only
            reference = 1.0 / total if family == "uniform" else None
            error = None if reference is None else 1.0 - value
        elif measure == "pmax-gap":
            best = pmax_overlap(state, cfg)
            value = abs(pmax_simulated(state.shape, best.value) - best.value)
            reference = 5.0 / math.sqrt(total)
            error = value - reference  # negative when within the bound
        else:
            if measure == "pmax":
                value, reference = pmax_overlap(state, cfg).value, p_ref
            else:
                value = groverian(state, cfg).groverian
                reference = None if p_ref is None else math.sqrt(1.0 - p_ref)
            error = None if reference is None else abs(value - reference)
        # a family without a closed form gets no reference columns
        rows.append([total, value] + ([] if reference is None else [reference, error]))
    return {
        "measure": measure,
        "family": family,
        "columns": ["N", "value", "reference", "error"][: len(rows[0])],
        "rows": rows,
    }


COMMANDS = {
    "pmax": cmd_pmax,
    "groverian": cmd_groverian,
    "grover": cmd_grover,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    start = time.perf_counter()
    report = {"command": "groverian " + " ".join(argv), "version": __version__}
    if "seed" in args:
        report["seed"] = args.seed
    report["config"] = {
        key: getattr(args, key)
        for key in ("restarts", "tol", "max_sweeps", "output")
        if key in args
    }
    try:
        if "restarts" in args:
            args.cfg = OptimizerConfig(
                restarts=args.restarts, tol=args.tol, max_sweeps=args.max_sweeps, seed=args.seed
            )
        outcome = COMMANDS[args.command](args)
        results, lines = outcome if isinstance(outcome, tuple) else (outcome, [])
        report["results"] = results
        # Wall clock sits outside the determinism surface; tests drop this key.
        report["duration_s"] = time.perf_counter() - start
        text = _to_csv(results) if args.output == "csv" else canonical_json(report)
    except (TooLarge, NonFiniteResult) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        print("numerical failure: out of memory", file=sys.stderr)
        return EXIT_NUMERICAL
    except GroverianError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # The report file holds only the report; the check lines go to stdout,
    # and only once the file is written.
    if args.out:
        try:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write report to {args.out}: {exc.strerror}", file=sys.stderr)
            return EXIT_USAGE
    else:
        lines = [*lines, text]
    sys.stdout.write("".join(line + "\n" for line in lines))
    return EXIT_OK if results.get("passed", True) else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())

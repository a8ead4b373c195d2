"""Benchmark of the groverian CLI: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-all --seed 7 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 25 --trace 0

Each sample is a fresh interpreter (``child.py``) that imports
``groverian.cli`` from this checkout's ``src`` and calls ``main(argv)``
with stdout captured; samples run one at a time (closed loop, one client).
A run keeps starting samples while the next one is expected to end
within ``--seconds`` and checks each sample's output with the workload's
gate, outside the timed span.  BLAS keeps its default thread count; it is recorded.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each input
untraced and then traced, reports the per-layer metrics of the traced
samples and the tracing overhead, and checks that both produced the same
bytes apart from ``duration_s``.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are the human-readable report and the recorded environment.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from environment import describe
from workloads import WORKLOADS, parse_report

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"

SETUP_PROBES = 10  # extra import-only interpreters per run, for setup_s
SAMPLE_TIMEOUT_S = 150
DURATION_LINE = re.compile(r'^  "duration_s": .*$', re.MULTILINE)
SAMPLE_METRICS = ("wall_s", "cpu_s", "peak_rss_mib")


def spawn(mode: str, trace: bool, argv: list[str]) -> dict:
    """Run one child interpreter; setup_s is spawn to groverian.cli imported."""
    started = time.clock_gettime(time.CLOCK_MONOTONIC)  # the clock child.py reads
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(SRC), mode, "1" if trace else "0", *argv],
            capture_output=True,
            text=True,
            timeout=SAMPLE_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return {"error": f"sample process ran longer than {SAMPLE_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"sample process exited {proc.returncode}: {proc.stderr[-2000:]}"}
    record = json.loads(lines[-1])
    record["setup_s"] = record["imported"] - started
    return record


def check_sample(workload, sample, record: dict) -> str | None:
    """None when the sample ran and its output passed the workload's gate."""
    if "error" in record:
        return record["error"]
    if record["traceback"]:
        return "main raised:\n" + record["traceback"]
    if record["rc"] != 0:
        return f"exit code {record['rc']}: {record['stderr'].strip()[-500:]}"
    try:
        return workload.gate(parse_report(record["stdout"]), sample.expect)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable report: {exc!r}"


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run samples while the next is expected to end within ``seconds``."""
    spawn("import", False, [])  # warm the file cache and bytecode; not counted
    setups = []
    for _ in range(SETUP_PROBES):
        record = spawn("import", False, [])
        if "error" in record:
            raise SystemExit(f"error: cannot import groverian: {record['error']}")
        setups.append(record["setup_s"])

    modes = (False, True) if trace else (False,)
    plain, traced, failures, missing, index = [], [], [], set(), 0
    deadline = time.monotonic() + seconds
    while True:
        began = time.monotonic()
        sample = workload.prepare(workdir, seed, index)
        outputs = []
        for with_trace in modes:
            record = spawn("run", with_trace, sample.argv)
            setups += [record["setup_s"]] if "setup_s" in record else []
            reason = check_sample(workload, sample, record)
            if reason is not None:
                failures.append(f"sample {index} trace={int(with_trace)}: {reason}")
                continue
            (traced if with_trace else plain).append(record)
            missing.update(record.get("missing", ()))
            outputs.append(DURATION_LINE.sub("", record["stdout"]))
        if len(outputs) == 2 and outputs[0] != outputs[1]:
            failures.append(f"sample {index}: traced output differs from untraced")
        index += 1
        for path in workdir.iterdir():
            path.unlink()
        now = time.monotonic()
        if now + (now - began) > deadline:
            break
    return {
        "inputs": index,
        "attempted": index * len(modes),
        "failures": failures,
        "missing": sorted(missing),
        "plain": plain,
        "traced": traced,
        "setups": setups,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(run: dict) -> dict[str, tuple[float, float, float, int]]:
    """Median, quartiles and count of each end-to-end metric."""
    series = {name: [r[name] for r in run["plain"]] for name in SAMPLE_METRICS}
    series["setup_s"] = run["setups"]
    return {name: (*quartiles(v), len(v)) for name, v in series.items() if v}


def per_layer(run: dict, copy_bandwidth: float) -> dict[str, float]:
    """Median over traced samples of each layer metric, plus derived ones."""
    traced = run["traced"]
    if not traced:
        return {}
    layers = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    iterate_s = layers["grover.grover_iterate.s"]
    computed = layers["grover.grover_iterate.bytes_computed"]
    layers["grover.grover_iterate.bw_frac"] = computed / iterate_s / copy_bandwidth if iterate_s else 0.0
    if run["plain"]:
        layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
            r["wall_s"] for r in run["plain"]
        )
    return layers


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "groverian" / "cli.py").is_file():
        print(f"error: no groverian sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the gates use the package as a reference
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]

    env = describe(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    try:
        for name in names:
            run = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), workdir)
            attempted += run["attempted"]
            failed += len(run["failures"])
            print(f"workload {name}: seed {args.seed}, {run['inputs']} inputs, closed loop, one client")
            for reason in run["failures"]:
                print(f"FAIL {reason}")
            if run["missing"]:
                print(f"WARNING boundaries not found, reported as 0: {run['missing']}")
            values = {}
            for metric, (q1, med, q3, n) in end_to_end(run).items():
                values[metric] = med
                print(
                    f"  {metric:<14} median {med:.6g} {units[metric]}"
                    f"  q1 {q1:.6g}  q3 {q3:.6g}  n {n}"
                )
            print(
                f"  {'fail_ratio':<14} {len(run['failures']) / run['attempted']:.6g} 1"
                f"  ({len(run['failures'])} of {run['attempted']} samples)"
            )
            if args.trace:
                values = per_layer(run, env["copy_bandwidth_Bps"])
                for metric, value in values.items():
                    print(f"  {metric:<52} {value:.6g} {units.get(metric, '')}  n {len(run['traced'])}")
            prefix = "" if len(names) == 1 else f"{name}/"
            for metric in wanted:
                metrics[prefix + metric] = {"value": values.get(metric, 0.0), "unit": units[metric]}
            sys.stdout.flush()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

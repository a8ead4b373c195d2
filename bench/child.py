"""One benchmark sample: a fresh interpreter that runs ``groverian.cli.main``.

Usage: ``python3 child.py SRC_DIR import|run TRACE [CLI ARGS...]``

Nothing is imported before ``groverian.cli`` except ``sys`` and ``time``, so
the reported import time is the interpreter's and the package's.  The
sample prints one JSON line: the monotonic time at which the import
finished, the wall and CPU time of ``main``, the peak resident set size
read right after ``main`` returned, the exit code, and the captured output.  With TRACE=1
it also carries the per-layer metrics of the traced call.
"""

import sys
import time

src_dir, mode, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
cli_args = sys.argv[4:]
sys.path.insert(0, src_dir)
import groverian.cli  # noqa: E402

imported = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _peak_rss_mib() -> float:
    """This process image's resident high-water mark.

    Not ``ru_maxrss``: on Linux that survives vfork+exec, so a child would
    report its spawning process's peak when that is larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)  # all threads of the process
    return ru.ru_utime + ru.ru_stime


def main() -> None:
    record = {"imported": imported}
    package_file = os.path.realpath(groverian.cli.__file__)
    if not package_file.startswith(os.path.realpath(src_dir) + os.sep):
        record["error"] = f"groverian imported from {package_file}, not {src_dir}"
    elif mode == "run":
        record.update(run_sample())
    sys.stdout.write(json.dumps(record) + "\n")


def run_sample() -> dict:
    tracer = None
    checks, missing = [], []
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        tracer = tracing.Tracer()
        checks, missing = tracing.install(tracer)
    out, err = io.StringIO(), io.StringIO()
    rc, failure = None, None
    cpu0 = _cpu()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = groverian.cli.main(list(cli_args))
    except Exception:
        failure = traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0
    peak_rss = _peak_rss_mib()
    record = {
        "rc": rc,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mib": peak_rss,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "traceback": failure,
    }
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer, checks)
        record["missing"] = missing
        record["hook_errors"] = {
            k: v for k, v in tracer.counters.items() if k.startswith("hook_errors.")
        }
    return record


main()

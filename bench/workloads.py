"""The benchmark's workloads: generated inputs, CLI arguments, output gates.

Every sample of a run gets its own input, derived from the workload seed
and the sample's index, so a run's median spans several inputs.  The
program only ever sees the generated inputs through its command line and
input files.  Each gate returns None when the report is correct and a
one-line reason when it is not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Callable

import numpy as np

WIDE_QUBITS = 18
PMAX_RESTARTS = 5
DENSE_QUBITS = 23
DENSE_ITERATIONS = 128
MIXED_QUBITS = 9
# Sweeps to convergence on a Haar state vary several-fold from input to
# input (18 qubits: 4 s to 14 s per input at the default budget), which no
# run short enough for the benchmark can average away.  A sweep budget
# below the fastest convergence seen (24 sweeps at 9 and 14 qubits) makes
# every input cost the same number of site updates.
WIDE_MAX_SWEEPS = 40
MIXED_MAX_SWEEPS = 20

FEASIBILITY_TOL = 1e-12  # |<argmax|psi>|^2 against the reported value
STATIONARITY_TOL = 1e-9  # each site environment's squared norm against it
TWO_MODE_TOL = 1e-9  # P(k) against the recurrence, relative to the curve peak
IDENTITY_TOL = 1e-14  # groverian^2 + pmax = 1
MIXED_PURE_TOL = 1e-9  # mixed optimizer on a projector against the pure one


def sample_seed(seed: int, index: int, stream: int = 0) -> int:
    """Seed of one sample's input, from the workload seed and its index."""
    entropy = (seed & ((1 << 64) - 1), index, stream)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint32)[0])


def qubit_dims(n: int) -> str:
    return ",".join(["2"] * n)


def parse_report(stdout: str) -> dict:
    """The JSON run report: the text from the first line reading '{'."""
    start = 0 if stdout.startswith("{\n") else stdout.index("\n{\n") + 1
    return json.loads(stdout[start:])


@dataclass(frozen=True)
class Sample:
    """One invocation: CLI arguments and what its gate needs to know."""

    argv: list[str]
    expect: object


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[Path, int, int], Sample]
    gate: Callable[[dict, object], str | None]


# --------------------------------------------------------------- verify-all


def prepare_verify(workdir: Path, seed: int, index: int) -> Sample:
    return Sample(["verify", "--suite", "all", "--seed", str(sample_seed(seed, index))], None)


def gate_verify(report: dict, expect) -> str | None:
    if report["results"].get("passed") is not True:
        failed = [c["name"] for c in report["results"]["checks"] if not c["passed"]]
        return f"verify reported failures: {failed}"
    return None


# ---------------------------------------------------------------- pmax-wide


def haar_amplitudes(n_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    total = 2**n_qubits
    z = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return z / np.linalg.norm(z)


def write_state_file(path: Path, amps: np.ndarray, dims: list[int]) -> None:
    """State file in the documented format, 17 significant digits per float."""
    pairs = ",\n    ".join(
        f"[{re:.16e}, {im:.16e}]" for re, im in zip(amps.real.tolist(), amps.imag.tolist())
    )
    text = f'{{\n  "dims": {json.dumps(dims)},\n  "amps": [\n    {pairs}\n  ]\n}}\n'
    path.write_text(text, encoding="utf-8")


def prepare_pmax(workdir: Path, seed: int, index: int) -> Sample:
    sub = sample_seed(seed, index)
    amps = haar_amplitudes(WIDE_QUBITS, sub)
    path = workdir / f"pmax-wide-{index}.json"
    write_state_file(path, amps, [2] * WIDE_QUBITS)
    argv = [
        "pmax",
        "--state", str(path),
        "--restarts", str(PMAX_RESTARTS),
        "--max-sweeps", str(WIDE_MAX_SWEEPS),
        "--seed", str(sub),
    ]
    return Sample(argv, amps)


def site_environments(amps: np.ndarray, factors: list[np.ndarray]) -> list[np.ndarray]:
    """v_j[k] = <e_1..e_{j-1}, k, e_{j+1}..e_n | psi> for every site j."""
    tensor = amps.reshape([f.size for f in factors])
    envs = []
    for j in range(len(factors)):
        rows = np.moveaxis(tensor, j, 0).reshape(factors[j].size, -1)
        others = [f.conj() for i, f in enumerate(factors) if i != j]
        envs.append(rows @ reduce(np.kron, others, np.ones(1, dtype=complex)))
    return envs


def gate_pmax(report: dict, amps: np.ndarray) -> str | None:
    r = report["results"]
    value = float(r["value"])
    factors = [np.array([complex(re, im) for re, im in f]) for f in r["argmax_factors"]]
    overlap = abs(np.vdot(reduce(np.kron, factors), amps)) ** 2
    if not abs(overlap - value) <= FEASIBILITY_TOL:
        return f"|<argmax|psi>|^2 = {overlap!r} but value = {value!r}"
    if not abs(max(r["best_per_restart"]) - value) <= FEASIBILITY_TOL:
        return f"best restart {max(r['best_per_restart'])!r} but value = {value!r}"
    floor = float(np.max(np.abs(amps) ** 2))
    if not value >= floor - FEASIBILITY_TOL:
        return f"value {value!r} below the best basis overlap {floor!r}"
    # Each environment's squared norm is the best value reachable by changing
    # that site alone, so none is below the value; at convergence all equal
    # it, and within a sweep budget the site updated last still does.
    excess = [
        float(np.vdot(env, env).real) - value for env in site_environments(amps, factors)
    ]
    if not min(excess) >= -FEASIBILITY_TOL:
        return f"an environment norm^2 is below the value by {-min(excess)!r}"
    stationary = max(excess) if r["converged"] else min(excess)
    if not stationary <= STATIONARITY_TOL:
        return f"environment norm^2 exceeds the value by {stationary!r} (not stationary)"
    return None


# ------------------------------------------------------------- search-dense


def prepare_search(workdir: Path, seed: int, index: int) -> Sample:
    sub = sample_seed(seed, index)
    marked = int(np.random.default_rng(sample_seed(seed, index, 1)).integers(2**DENSE_QUBITS))
    argv = [
        "grover",
        "--state", f"random:{qubit_dims(DENSE_QUBITS)}:{sub}",
        "--marked", str(marked),
        "--iterations", str(DENSE_ITERATIONS),
    ]
    return Sample(argv, (DENSE_QUBITS, sub, marked, DENSE_ITERATIONS))


def two_mode_curve(marked_amp: complex, rest_sum: complex, total: int, iterations: int):
    """P(k) for one marked index from the two-mode reduction.

    Biham et al., PRA 60, 2742 (1999): with k the marked amplitude and L
    the sum of the unmarked ones, one iterate maps m = (L - k)/N,
    k -> -k - 2m, L -> L - 2(N - 1)m; the deviations from the mean only
    change sign, so P(k) = |k|^2 needs nothing else.
    """
    k, rest = complex(marked_amp), complex(rest_sum)
    curve = [abs(k) ** 2]
    for _ in range(iterations):
        m = (rest - k) / total
        k, rest = -k - 2.0 * m, rest - 2.0 * (total - 1) * m
        curve.append(abs(k) ** 2)
    return curve


def initial_marked_and_rest(amps: np.ndarray, marked: int) -> tuple[complex, complex]:
    k = complex(amps[marked])
    return k, complex(np.sum(amps)) - k


def gate_search(report: dict, expect) -> str | None:
    import groverian as gv

    n, sub, marked, iterations = expect
    r = report["results"]
    if r["marked"] != [marked] or r["iterations"] != iterations:
        return f"report ran marked={r['marked']} iterations={r['iterations']}"
    amps = gv.random_state(gv.SystemShape([2] * n), sub).amps
    curve = two_mode_curve(*initial_marked_and_rest(amps, marked), amps.size, iterations)
    del amps
    rows = r["rows"]
    if [row[0] for row in rows] != list(range(len(curve))):
        return f"expected P(k) rows for k = 0..{len(curve) - 1}"
    tol = TWO_MODE_TOL * max(curve)
    worst = max(abs(row[1] - p) for row, p in zip(rows, curve))
    if not worst <= tol:
        return f"P(k) differs from the two-mode recurrence by {worst!r} > {tol!r}"
    if r["final_probability"] != rows[-1][1]:
        return "final_probability is not the last P(k)"
    return None


# --------------------------------------------------------------- mixed-wide


def prepare_mixed(workdir: Path, seed: int, index: int) -> Sample:
    sub = sample_seed(seed, index)
    return Sample(
        [
            "groverian",
            "--mixed", f"pure:random:{qubit_dims(MIXED_QUBITS)}:{sub}",
            "--max-sweeps", str(MIXED_MAX_SWEEPS),
        ],
        (MIXED_QUBITS, sub),
    )


def gate_mixed(report: dict, expect) -> str | None:
    import groverian as gv

    n, sub = expect
    r, config = report["results"], report["config"]
    g, pmax = float(r["groverian"]), float(r["pmax"])
    if not abs(g * g + pmax - 1.0) <= IDENTITY_TOL:
        return f"groverian^2 + pmax - 1 = {g * g + pmax - 1.0!r}"
    cfg = gv.OptimizerConfig(
        restarts=config["restarts"],
        tol=config["tol"],
        max_sweeps=config["max_sweeps"],
        seed=report["seed"],
    )
    reference = gv.pmax_overlap(gv.random_state(gv.SystemShape([2] * n), sub), cfg).value
    if not abs(pmax - reference) <= MIXED_PURE_TOL:
        return f"mixed pmax {pmax!r} differs from pure-state pmax {reference!r}"
    return None


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "verify-all",
            "the correctness suite; ~85% tiny-tensor optimizer overhead, so batched "
            "restarts and Python-overhead cuts show here; no large-N path",
            prepare_verify,
            gate_verify,
        ),
        Workload(
            "pmax-wide",
            f"optimizer on an {WIDE_QUBITS}-qubit Haar state file: O(n*N) contraction "
            "per site update plus state-file parsing; never touches grover",
            prepare_pmax,
            gate_pmax,
        ),
        Workload(
            "search-dense",
            f"{DENSE_ITERATIONS} search iterates on 2^{DENSE_QUBITS} amplitudes (128 MiB, "
            "4x L3): memory-bound copies and revalidation; bypasses product_opt",
            prepare_search,
            gate_search,
        ),
        Workload(
            "mixed-wide",
            f"mixed-state optimizer on a {MIXED_QUBITS}-qubit projector: the dense kron "
            "sandwich, O(N^2 d) per site update",
            prepare_mixed,
            gate_mixed,
        ),
    ]
}

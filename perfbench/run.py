"""qglab benchmark: one workload, timed end to end, or traced layer by layer.

    python3 perfbench/run.py --workload verify-fixtures --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository (it imports ``src/qglab`` and reads
``fixtures/``).  Human-readable lines go to stdout first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("verify-fixtures", "sweep-balloon", "exact-topology")

#: Fresh-process set-up a CLI user pays on every call: the interpreter, the
#: qglab/numpy/scipy imports and the first LAPACK call.
SETUP_CODE = (
    "import numpy as np, scipy.linalg, qglab.cli\n"
    "scipy.linalg.eigh(np.diag(np.arange(1.0, 9.0)), subset_by_index=(0, 1))\n"
)
SETUP_REPEATS = 5
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Every run, the single-threaded child included, ends well inside this.
RUN_LIMIT_S = 170.0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed loop (untraced runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the self-test's inputs")
    ap.add_argument("--corrupt-spectrum", action="store_true", help="pass verify's hidden fault flag through")
    ap.add_argument("--single-thread-child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _env_with_src(extra=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def measure_setup() -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env_with_src(), check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# machine record


def _blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS loaded in this process, asked through ctypes."""
    import ctypes

    paths = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.rsplit(None, 1)[-1]
            if "openblas" in os.path.basename(path).lower() and ".so" in path:
                paths.add(path)
    found = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = int(fn())
                break
    return found


def machine_record() -> dict:
    import numpy
    import scipy

    def blas(mod):
        cfg = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{cfg.get('name')} {cfg.get('version')}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


# ---------------------------------------------------------------------------
# timed passes


class Outcomes:
    """Items attempted, and the failures among them: raised, or failed the gate."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, item, tracer=None) -> float:
        """Run one item and return its latency; the gate runs untimed and unrecorded."""
        result, error = None, None
        t0 = time.perf_counter()
        try:
            result = item.run()
        except Exception as exc:  # an item that raises is counted, never dropped
            error = f"raised {exc!r}"
        latency = time.perf_counter() - t0
        self.attempted += 1
        with tracer.paused() if tracer else contextlib.nullcontext():
            if error is None:
                try:
                    error = item.check(result)
                except Exception as exc:  # e.g. a report the program never wrote
                    error = f"gate raised {exc!r}"
        if error is not None:
            self.failures.append(f"{item.name}: {error}")
        return latency

    def run_pass(self, items, tracer=None) -> list[float]:
        return [self.run(item, tracer) for item in items]


def quantile(samples: list[float], q: float) -> float:
    if q >= 1.0:
        return max(samples)
    xs = sorted(samples)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# per-layer metrics


def _busy(name):
    return (f"{name}.busy_s", "s", lambda s: s.get(name, {}).get("busy_s", 0.0))


def _count(name, key, metric=None, unit="count"):
    return (f"{name}.{metric or key}", unit, lambda s: s.get(name, {}).get(key, 0))


SOLVE = "fem.solve_spectrum"
INEQ_CHECKS = (
    "yang_from_spectrum", "yang_check", "lt_quotient", "stubbe_monotonicity", "one_loop_shifted_check",
    "sum_rule_steps_check", "riesz_suite", "mean_ratio_bounds", "weyl_check",
)
SPAN_METRICS = [
    _count(SOLVE, "calls"),
    _busy(SOLVE),
    _count(SOLVE, "dense_calls"),
    _count(SOLVE, "sparse_calls"),
    _count(SOLVE, "ndof", "ndof_sum"),
    _count(SOLVE, "k", "k_sum"),
    _count(SOLVE, "dense_bytes_computed", unit="B"),
    _busy("fem.build_mesh"),
    _count("fem.assemble", "calls"),
    _busy("fem.assemble"),
    _count("fem.integrate_potential_power", "calls"),
    *[_busy(f"inequalities.{c}") for c in INEQ_CHECKS],
    _count("circuits.solve_nodal", "calls"),
    _busy("circuits.solve_nodal"),
    _count("circuits.solve_nodal", "unknowns", "unknowns_sum"),
    _busy("circuits.g_family_verdict"),
    _busy("colorings.enumerate_admissible"),
    _count("colorings.enumerate_admissible", "colorings"),
    _busy("analytic.balloon_eigenvalues"),
    _busy("analytic.bisect"),
    _busy("analytic.fancy_balloon_eigenvalues"),
    _busy("graphs.load_graph"),
    _busy("graphs.validate"),
    _busy("graphs.classify_topology"),
    *[m for w in ("write_report", "write_csv", "write_json")
      for m in (_busy(f"reports.{w}"), _count(f"reports.{w}", "bytes", unit="B"))],
    _busy("cli.cmd_verify"),
    _busy("cli.cmd_sweep"),
]


def layer_metrics(tracer, wall_untraced: float, wall_traced: float, busy_1thread: float) -> dict:
    summary = tracer.summary()
    metrics = {name: {"value": fn(summary), "unit": unit} for name, unit, fn in SPAN_METRICS}
    metrics[f"{SOLVE}.busy_s_1thread"] = {"value": busy_1thread, "unit": "s"}
    metrics[f"{SOLVE}.busy_frac"] = {"value": metrics[f"{SOLVE}.busy_s"]["value"] / wall_traced, "unit": "ratio"}
    for check in ("stubbe_monotonicity", "one_loop_shifted_check"):
        name = f"inequalities.{check}"
        alphas = summary.get(name, {}).get("alphas", 0)
        solves = tracer.descendants_named(name, SOLVE)
        metrics[f"{name}.solves_per_alpha"] = {"value": solves / alphas if alphas else 0.0, "unit": "ratio"}
    own = dict.fromkeys(LAYERS, 0.0)
    for name, row in summary.items():
        own[name.split(".", 1)[0]] += row["busy_s"]
    for layer, busy in own.items():
        metrics[f"{layer}.busy_s"] = {"value": busy, "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": wall_traced / wall_untraced - 1.0, "unit": "ratio"}
    metrics["trace.spans"] = {"value": len(tracer), "unit": "count"}
    return metrics


def single_thread_busy(args, deadline: float) -> float:
    """fem.solve_spectrum self time of one traced pass in a child with one BLAS thread."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1", "--size", args.size, "--single-thread-child"]
    if args.corrupt_spectrum:
        cmd.append("--corrupt-spectrum")
    proc = subprocess.run(cmd, env=_env_with_src(SINGLE_THREAD_ENV), capture_output=True, text=True,
                          timeout=max(10.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"single-threaded child failed:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if any(n != 1 for n in report["blas_threads"].values()):
        raise RuntimeError(f"child did not run single-threaded: {report['blas_threads']}")
    return report["busy_s"]


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isdir(os.path.join(SRC, "qglab")) or not os.path.isdir(os.path.join(ROOT, "fixtures")):
        print(f"error: no qglab sources under {ROOT} (need src/qglab and fixtures/)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    setup = [] if args.single_thread_child else measure_setup()

    from workloads import WORKLOADS

    machine = machine_record()
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        plan = WORKLOADS[args.workload](ROOT, work, args.seed, args.size, args.corrupt_spectrum)
        outcomes = Outcomes()
        outcomes.run(plan.warmup)

        if args.single_thread_child:
            tracer = Tracer()
            with tracer.installed():
                outcomes.run_pass(plan.items, tracer)
            busy = tracer.summary().get(SOLVE, {}).get("busy_s", 0.0)
            print(json.dumps({"busy_s": busy, "blas_threads": machine["blas_threads"]}))
            return 0 if not outcomes.failures else 1

        print(f"machine: {json.dumps(machine, sort_keys=True)}")
        print(f"workload {args.workload} seed {args.seed} size {args.size}: {len(plan.items)} items per pass")
        if args.trace:
            metrics = traced_run(args, plan, outcomes, deadline, machine)
        else:
            metrics = timed_run(args, plan, outcomes, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in outcomes.failures[:20]:
        print(f"FAILED {failure}")
    failed = len(outcomes.failures)
    print(f"failed_frac {failed / outcomes.attempted:.4f} ({failed} of {outcomes.attempted} items)")
    print(json.dumps({"correct": failed == 0, "attempted": outcomes.attempted, "failed": failed, "metrics": metrics}))
    return 0


def timed_run(args, plan, outcomes: Outcomes, setup: list[float]) -> dict:
    walls, samples = [], []
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < args.seconds:
        lat = outcomes.run_pass(plan.items)
        walls.append(sum(lat))
        samples += lat
    q = plan.tail_q
    tail_label = "max" if q >= 1.0 else f"p{100 * q:.1f}"
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "item_s.p50": {"value": statistics.median(samples), "unit": "s"},
        "item_s.tail": {"value": quantile(samples, q), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "wall_s": f"median of {len(walls)} passes",
        "item_s.p50": f"{len(samples)} samples",
        "item_s.tail": f"{tail_label}, {len(samples)} samples",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for name, m in metrics.items():
        print(f"{name:<12} {m['value']:>12.6g} {m['unit']:<4} ({notes[name]})")
    for name, value in plan.notes.items():
        print(f"{name:<12} {value:>12.6g}      (correctness gate, not a timed metric)")
    return metrics


def traced_run(args, plan, outcomes: Outcomes, deadline: float, machine: dict) -> dict:
    wall_untraced = sum(outcomes.run_pass(plan.items))
    tracer = Tracer()
    with tracer.installed():
        wall_traced = sum(outcomes.run_pass(plan.items, tracer))
    tracer.require_layers(plan.layers)
    busy_1thread = single_thread_busy(args, deadline) if "fem" in plan.layers else 0.0

    metrics = layer_metrics(tracer, wall_untraced, wall_traced, busy_1thread)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"machine": machine, "workload": args.workload, "seed": args.seed,
                   "wall_untraced_s": wall_untraced, "wall_traced_s": wall_traced,
                   "metrics": metrics, **tracer.to_payload()}, fh)
    for name, m in metrics.items():
        print(f"{name:<52} {m['value']:>14.6g} {m['unit']}")
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark, at tiny sizes (under two minutes).

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` keeps the benchmark contract; that the tracer
replaces every binding of every traced function and restores them; that every
workload prints each metric named in ``BENCHMARK.json`` with its unit,
untraced and traced; that a corrupted verify run (``--corrupt-spectrum``) is
counted as failed; and that the benchmark refuses to run, printing no result,
where the qglab sources are missing.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys

from run import WORKLOAD_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(cwd: str, *args: str) -> tuple[int, list[str], str]:
    """Exit code, stdout lines and stderr of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def result(stdout: list[str]) -> dict | None:
    """The JSON object on the last line of stdout, if there is one."""
    return json.loads(stdout[-1]) if stdout and stdout[-1].startswith("{") else None


def contract_problems(spec: dict) -> list[str]:
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    if not 2 <= len(spec["workloads"]) <= 8 or any(len(w["why"]) > 200 or "\n" in w["why"] for w in spec["workloads"]):
        problems.append("2 to 8 workloads, each with a one-line why of at most 200 characters")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    problems += [f"bad or repeated name {n!r}" for n in names if not NAME.fullmatch(n) or names.count(n) > 1]
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("lower", "higher"):
            problems.append(f"metric {m['name']}: unit or direction")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"end-to-end metric {m['name']}: keys or bound")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or (setup[0]["unit"], setup[0]["better"]) != ("s", "lower"):
        problems.append("setup_s must be an end-to-end metric in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    return problems


def tracer_problems() -> list[str]:
    """Every binding of a traced function is wrapped while installed, and restored after."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from tracer import LAYERS, UNTRACED, Tracer

    modules = [importlib.import_module("qglab")] + [importlib.import_module(f"qglab.{m}") for m in LAYERS]
    traced = {
        id(obj): f"{short}.{attr}"
        for short, mod in zip(LAYERS, modules[1:])
        for attr, obj in vars(mod).items()
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__
        and not attr.startswith("_") and f"{short}.{attr}" not in UNTRACED
    }

    def bindings() -> list[str]:
        found = []
        for mod in modules:
            spaces = [vars(mod)] + [v for k, v in vars(mod).items() if isinstance(v, dict) and not k.startswith("__")]
            found += [f"{mod.__name__}:{traced[id(v)]}" for ns in spaces for v in ns.values() if id(v) in traced]
        return sorted(found)

    before = bindings()
    with Tracer().installed():
        during = bindings()
    problems = [f"unwrapped while tracing: {b}" for b in during]
    if bindings() != before:
        problems.append("bindings not restored after tracing")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = contract_problems(spec) + tracer_problems()
    print(f"{'FAIL' if problems else 'ok  '} BENCHMARK.json contract and tracer bindings")
    tiny = ["--seed", "1", "--seconds", "1", "--size", "tiny"]

    # exact-topology is not in BENCHMARK.json but prints the same metrics
    for name in WORKLOAD_NAMES:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            rc, lines, err = run(ROOT, "--workload", name, "--trace", trace, *tiny)
            res = result(lines)
            label = f"{name} --trace {trace}"
            if rc != 0 or res is None or set(res) != RESULT_KEYS:
                problems.append(f"{label}: exit {rc}, result {res}\n{err}")
                continue
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{label}: {res['failed']} of {res['attempted']} items failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics {sorted(set(got) ^ set(want))} or units differ")
            print(f"ok   {label}: {len(got)} metrics, {res['attempted']} items")

    rc, lines, _ = run(ROOT, "--workload", "verify-fixtures", "--trace", "0", "--corrupt-spectrum", *tiny)
    res = result(lines)
    if rc != 0 or res is None or res["failed"] == 0 or res["correct"]:
        problems.append(f"--corrupt-spectrum went unnoticed: exit {rc}, result {res}")
    else:
        print(f"ok   --corrupt-spectrum: failed_frac {res['failed'] / res['attempted']:.2f}")

    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        rc, lines, _ = run(bare, "--workload", "exact-topology", "--trace", "0", *tiny)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if rc == 0 or result(lines) is not None:
        problems.append(f"ran without the sources: exit {rc}")
    else:
        print(f"ok   without sources: exit {rc}, no result")

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

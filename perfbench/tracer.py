"""Outside-in tracer for qglab: spans around the public functions of each module.

Nothing under ``src/`` knows about it.  ``Tracer.installed()`` replaces every
binding of a public qglab function with a wrapper that records a span (name,
parent, start, end) and a few counts taken from the call's arguments or
result.  A function is bound in more than one place (``inequalities`` imports
``solve_spectrum`` from ``fem``, ``cli`` imports from ``graphs`` and
``reports``, the package re-exports, ``cli._COMMANDS`` holds the subcommands),
so every module namespace and every module-level dict is searched for the
same function object.  Leaving the context restores all bindings.

Spans stay in memory, in flat arrays with parent links, and are written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array
from contextlib import contextmanager

LAYERS = ("graphs", "families", "fem", "analytic", "inequalities", "colorings", "circuits", "reports", "cli")

#: Scalar helpers called from inner loops (thousands of times per item).  A
#: span costs more than such a call, so they stay unwrapped and their time
#: counts toward their caller's self time.
UNTRACED = frozenset(
    {"analytic.balloon_secular", "analytic.classical_lt_constant", "reports.fmt_float", "reports.round_sig"}
)

#: Eigensolver backends.  They get no span of their own (that would move the
#: eigensolve out of ``fem.solve_spectrum``'s self time); each call adds to the
#: counts of the enclosing span, which tells which backend a solve used.
BACKENDS = (("scipy.linalg", "eigh", "dense"), ("scipy.sparse.linalg", "eigsh", "sparse"))


def _solve_counts(args, kwargs, spectrum):
    return {"ndof": int(spectrum.vectors.shape[0]), "k": len(spectrum.energies)}


def _alpha_counts(args, kwargs, report):
    return {"alphas": len(report.alphas)}


def _nodal_counts(args, kwargs, solution):
    return {"unknowns": len(solution.potentials) - len(solution.voltages)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _report_bytes(args, kwargs, paths):
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


#: Per-function counts, computed after the call returns (outside its span).
EXTRACTORS = {
    "fem.solve_spectrum": _solve_counts,
    "inequalities.stubbe_monotonicity": _alpha_counts,
    "inequalities.one_loop_shifted_check": _alpha_counts,
    "circuits.solve_nodal": _nodal_counts,
    "colorings.enumerate_admissible": lambda a, kw, cols: {"colorings": len(cols)},
    "reports.write_csv": _file_bytes,
    "reports.write_json": _file_bytes,
    "reports.write_report": _report_bytes,
}


class LayerNotTraced(RuntimeError):
    """A layer the workload is listed as exercising recorded no span."""


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[int, dict[str, float]] = {}
        self._stack: list[int] = []
        self._paused = 0

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, extract):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            if extract is not None:
                self._add(idx, extract(args, kwargs, result))
            return result

        return traced

    def _wrap_backend(self, kind: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not self._paused and self._stack:
                added = {f"{kind}_calls": 1}
                if kind == "dense":
                    n = int(args[0].shape[0])
                    # H and M handed to LAPACK as dense float64: computed, not measured
                    added["dense_bytes_computed"] = 2 * n * n * 8
                self._add(self._stack[-1], added)
            return fn(*args, **kwargs)

        return counted

    def _add(self, idx: int, values: dict) -> None:
        slot = self.counts.setdefault(idx, {})
        for key, v in values.items():
            slot[key] = slot.get(key, 0) + v

    @contextmanager
    def paused(self):
        """Run benchmark code (input generation, correctness gates) unrecorded."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- installation ----------------------------------------------------

    @contextmanager
    def installed(self):
        package = importlib.import_module("qglab")
        modules = {short: importlib.import_module(f"qglab.{short}") for short in LAYERS}
        wrappers: dict[int, tuple[object, object]] = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                qual = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or qual in UNTRACED
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(qual, obj, EXTRACTORS.get(qual)))
        namespaces = [vars(package)] + [vars(m) for m in modules.values()]
        for modname, attr, kind in BACKENDS:
            mod = importlib.import_module(modname)
            obj = getattr(mod, attr)
            wrappers[id(obj)] = (obj, self._wrap_backend(kind, obj))
            namespaces.append(vars(mod))

        containers = list(namespaces)
        for ns in namespaces:
            containers += [v for k, v in ns.items() if isinstance(v, dict) and not k.startswith("__")]
        patched: list[tuple[dict, str, object]] = []
        try:
            for container in containers:
                for key, val in list(container.items()):
                    hit = wrappers.get(id(val))
                    if hit is not None and hit[0] is val:
                        container[key] = hit[1]
                        patched.append((container, key, val))
            yield self
        finally:
            for container, key, val in reversed(patched):
                container[key] = val

    # -- analysis --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def require_layers(self, layers) -> None:
        missing = sorted(set(layers) - {name.split(".", 1)[0] for name in self.names})
        if missing:
            raise LayerNotTraced(f"no spans recorded for layer(s) {', '.join(missing)}")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (self time), and summed counts."""
        out: dict[str, dict[str, float]] = {}
        for idx, (name, own) in enumerate(zip(self.names, self.self_times())):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += own
            for key, v in self.counts.get(idx, {}).items():
                row[key] = row.get(key, 0) + v
        return out

    def descendants_named(self, ancestor: str, name: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        total = 0
        for idx, n in enumerate(self.names):
            if n != name:
                continue
            p = self.parents[idx]
            while p >= 0 and self.names[p] != ancestor:
                p = self.parents[p]
            total += p >= 0
        return total

    def to_payload(self) -> dict:
        return {
            "spans": [
                [n, p, s, e, self.counts.get(i, {})]
                for i, (n, p, s, e) in enumerate(zip(self.names, self.parents, self.starts, self.ends))
            ],
            "columns": ["name", "parent", "start_s", "end_s", "counts"],
        }

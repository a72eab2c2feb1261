"""In-process span tracing of `distnull.cli.main`, installed from outside.

No source file of the package is edited. Each traced function is replaced
by a wrapper in its defining module and at every module that imported it
with `from .x import y`, since those call sites hold their own binding.
Spans are kept in memory as flat arrays (name, parent, start, end) and
written out when the run ends. A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from collections.abc import Callable
from pathlib import Path

import numpy as np

# (module, function) pairs traced; the layer name drops a leading "_".
LAYERS = (
    ("cli", "main"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_estimate"),
    ("cli", "cmd_test"),
    ("cli", "cmd_predict"),
    ("cli", "cmd_bmax"),
    ("cli", "cmd_calibrate"),
    ("cli", "cmd_power"),
    ("cli", "load_sites"),
    ("cli", "_read_csv"),
    ("cli", "_write"),
    ("estimators", "summarize"),
    ("estimators", "between_variance"),
    ("adapters", "statistic_from_summary"),
    ("significance", "p_sig_closed"),
    ("significance", "p_sig_integral"),
    ("replication", "p_rep_closed"),
    ("replication", "p_rep_integral"),
    ("replication", "b_max"),
    ("distributions", "find_positive_root"),
    ("distributions", "integrate"),
    ("distributions", "noncentral_t_cdf"),
    ("oracle", "task_pair_records"),
    ("oracle", "bin_pairs"),
    ("oracle", "simulate_raw_task"),
    ("power", "required_sample_size"),
    ("power", "beta_point"),
)

LAYER_NAMES = tuple(f"{m}.{f.lstrip('_')}" for m, f in LAYERS)
# Work counts recorded at layer boundaries, beyond each layer's calls.
COUNTS = (
    "cli.load_sites.rows",
    "cli.load_sites.sites",
    "cli.write.rows",
    "oracle.task_pair_records.records",
    "distributions.integrate.evals",
    "distributions.integrate.failed",
)
FORECASTS = ("replication.p_rep_closed", "replication.p_rep_integral")


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def parent_name(self) -> str | None:
        return self.names[self.name[self.stack[-1]]] if self.stack else None

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording a span per call; ``hook(args, result)`` counts work."""
        nid = self._name_id(name)
        stack, names, parents, starts, ends = (
            self.stack, self.name, self.parent, self.start, self.end)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _integrate(self, fn):
        """Wrap `distributions.integrate`, counting integrand evaluations and failures."""
        from distnull.errors import NumericError

        counts = self.counts

        def counted_integrate(f, *args, **kwargs):
            evals = [0]

            def integrand(x):
                evals[0] += 1
                return f(x)

            try:
                return fn(integrand, *args, **kwargs)
            except NumericError:
                counts["distributions.integrate.failed"] += 1
                raise
            finally:
                counts["distributions.integrate.evals"] += evals[0]

        return self.wrap("distributions.integrate", functools.wraps(fn)(counted_integrate))

    def _hooks(self) -> dict[str, object]:
        counts = self.counts

        def read_csv(args, result):
            if self.parent_name() == "cli.load_sites":
                counts["cli.load_sites.rows"] += len(result[1])

        def load_sites(args, result):
            counts["cli.load_sites.sites"] += len(result[1])

        def write(args, result):
            counts["cli.write.rows"] += len(args[2])

        def records(args, result):
            counts["oracle.task_pair_records.records"] += len(result)

        return {"cli.read_csv": read_csv, "cli.load_sites": load_sites,
                "cli.write": write, "oracle.task_pair_records": records}

    def install(self) -> Callable[[], None]:
        """Patch every binding of every traced function; returns the undo."""
        package = [m for name, m in sys.modules.items()
                   if name == "distnull" or name.startswith("distnull.")]
        hooks = self._hooks()
        undo = []
        for (module, attr), name in zip(LAYERS, LAYER_NAMES):
            original = getattr(importlib.import_module(f"distnull.{module}"), attr)
            if name == "distributions.integrate":
                wrapper = self._integrate(original)
            else:
                wrapper = self.wrap(name, original, hooks.get(name))
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))

        def restore() -> None:
            for mod, key, original in undo:
                setattr(mod, key, original)

        return restore

    # -- analysis -----------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        return name, parent, duration

    def layers(self) -> dict[str, float]:
        """Per-layer calls, self time and counts of this pass."""
        name, parent, duration = self._arrays()
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=len(name))
        busy = np.bincount(name, weights=duration - covered, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        out: dict[str, float] = {}
        for layer in LAYER_NAMES:
            nid = self._ids.get(layer)
            out[f"{layer}.calls"] = int(calls[nid]) if nid is not None else 0
            out[f"{layer}.busy_s"] = float(busy[nid]) if nid is not None else 0.0
        for key in COUNTS:
            out[key] = int(self.counts[key])
        # Forecasts computed inside task_pair_records, against its pair records.
        tpr = self._ids.get("oracle.task_pair_records")
        forecast_ids = [self._ids[f] for f in FORECASTS if f in self._ids]
        computed = int(np.count_nonzero(
            np.isin(name, forecast_ids) & child & (name[np.maximum(parent, 0)] == tpr)
        )) if tpr is not None else 0
        records = self.counts["oracle.task_pair_records.records"]
        out["oracle.forecast_reuse"] = 1.0 - computed / records if records else 0.0
        return out

    def save(self, path: Path) -> None:
        name, parent, _ = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent,
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
        )

"""In-memory spans around qreadout's public module functions.

Spans are recorded from outside the package by replacing module
attributes with timing wrappers, at the names the package calls them
through: ``cli`` reaches every layer as ``<module>.<function>``,
``bnmf.fit`` looks up ``update_eta`` and its siblings as module globals,
and ``partition`` and ``recovery`` import the transforms by name, so
``partition.cqt`` and ``recovery.icqt`` are wrapped there.  A span is
named after the module that defines the function (``transforms.cqt``).

Serialization helpers (``*_to_json``, ``*_to_csv``, ``from_dict``,
``to_dict``) are deliberately left unwrapped, so their time lands in the
self time of ``cli.main``: ``cli.self_s`` is validation plus the write and
load path.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# owner module -> attributes replaced on it
WRAPPED = {
    "cli": ("main",),
    "register": (
        "generate_input", "observe", "input_state", "register_state",
        "spectrum_from_row",
    ),
    "bnmf": (
        "select_order", "fit", "init_model", "update_eta",
        "update_variational", "lower_bound", "update_control",
    ),
    "partition": ("transform_bases", "fit_partition", "assign", "score", "cqt"),
    "recovery": (
        "regroup", "choose_carrier", "build_superposition", "extract_target",
        "finalize", "icqt", "dft", "idstft", "superposition",
        "synthesize_offsets",
    ),
    "snr": ("energy", "snr_report"),
}


def _count_fit(counts: Counter, model) -> None:
    counts["bnmf.fits"] += 1
    counts["bnmf.sweeps"] += model.iterations
    counts["bnmf.converged"] += bool(model.converged)


def _count_select(counts: Counter, result) -> None:
    counts["bnmf.kept_sweeps"] += result[1].iterations


def _count_partition(counts: Counter, tensors) -> None:
    counts["partition.fits"] += 1
    counts["partition.sweeps"] += tensors.iterations
    counts["partition.converged"] += bool(tensors.converged)


# span name -> hook that reads counts off the returned value
COUNTERS = {
    "bnmf.fit": _count_fit,
    "bnmf.select_order": _count_select,
    "partition.fit_partition": _count_partition,
}


def span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Tracer:
    """Span recorder; ``with tracer:`` installs the wrappers, exit restores them.

    Spans are kept as parallel columns (name id, start, end, parent index,
    run id) so a long traced run stays small in memory.  ``run_id`` is set
    by the caller before each run.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = -1
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn):
        name = span_name(fn)
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        hook = COUNTERS.get(name)
        stack, counts = self._stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result

        return wrapper

    def __enter__(self):
        for owner, attrs in WRAPPED.items():
            mod = importlib.import_module(f"qreadout.{owner}")
            for attr in attrs:
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)
        return False

    def columns(self) -> dict:
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "parent": np.array(self.parent, dtype=np.int32),
            "run": np.array(self.run, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the durations of its direct children.

    Spans come from one thread and nest, so the children of a span never
    overlap and their summed duration is the part of it they cover.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


def per_layer(names, name_id, start, end, parent, counts: Counter, runs: int) -> dict:
    """Per-run layer metrics, as ``{name: (value, unit)}``.

    ``*_s`` of a module is its summed self time; ``*_s`` of a function is
    its self time, except ``select_order``, ``fit_partition``,
    ``transform_bases`` and ``energy``, which are inclusive because they
    stand for a whole kernel.
    """
    name_id = np.asarray(name_id)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    own = self_times(start, end, parent)
    k = len(names)
    self_by = dict(zip(names, np.bincount(name_id, weights=own, minlength=k)))
    incl_by = dict(zip(names, np.bincount(name_id, weights=dur, minlength=k)))
    calls_by = dict(zip(names, np.bincount(name_id, minlength=k)))

    def module(prefix, table):
        return sum(v for n, v in table.items() if n.startswith(prefix + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    runs = max(runs, 1)
    c = counts
    out = {
        "bnmf.select_order_s": (incl_by.get("bnmf.select_order", 0.0) / runs, "s"),
    }
    for fn in ("update_eta", "update_variational", "lower_bound", "update_control"):
        out[f"bnmf.{fn}_s"] = (self_by.get(f"bnmf.{fn}", 0.0) / runs, "s")
    out.update({
        "bnmf.self_s": (module("bnmf", self_by) / runs, "s"),
        "bnmf.sweeps": (c["bnmf.sweeps"] / runs, "count"),
        "bnmf.sweep_us": (1e6 * ratio(incl_by.get("bnmf.fit", 0.0), c["bnmf.sweeps"]), "us"),
        "bnmf.converged_ratio": (ratio(c["bnmf.converged"], c["bnmf.fits"]), "ratio"),
        "bnmf.kept_sweep_ratio": (ratio(c["bnmf.kept_sweeps"], c["bnmf.sweeps"]), "ratio"),
        "partition.fit_partition_s": (incl_by.get("partition.fit_partition", 0.0) / runs, "s"),
        "partition.sweeps": (c["partition.sweeps"] / runs, "count"),
        "partition.sweep_ms": (
            1e3 * ratio(incl_by.get("partition.fit_partition", 0.0), c["partition.sweeps"]), "ms"
        ),
        "partition.converged_ratio": (ratio(c["partition.converged"], c["partition.fits"]), "ratio"),
        "partition.transform_bases_s": (incl_by.get("partition.transform_bases", 0.0) / runs, "s"),
        "partition.self_s": (module("partition", self_by) / runs, "s"),
        "snr.energy_s": (incl_by.get("snr.energy", 0.0) / runs, "s"),
        "snr.energy_calls": (calls_by.get("snr.energy", 0) / runs, "count"),
        "snr.self_s": (module("snr", self_by) / runs, "s"),
        "cli.self_s": (self_by.get("cli.main", 0.0) / runs, "s"),
        "register.self_s": (module("register", self_by) / runs, "s"),
        "transforms.self_s": (module("transforms", self_by) / runs, "s"),
        "transforms.calls": (module("transforms", calls_by) / runs, "count"),
        "recovery.self_s": (module("recovery", self_by) / runs, "s"),
        "recovery.calls": (module("recovery", calls_by) / runs, "count"),
    })
    return {name: (float(v), unit) for name, (v, unit) in out.items()}

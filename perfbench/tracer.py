"""Span tracing of gridgame's public functions, installed from outside.

`Tracer.install` replaces each traced function with a wrapper in every
loaded ``gridgame`` module namespace that binds it (``levelk.rollout`` is
``netform.rollout``, ``experiment.simulate`` is ``scenario.simulate``, and the
``as_netform`` kernels look ``scenario`` globals up at call time), so calls
are caught whichever module makes them.  Each span records its name, start,
end and parent span in flat arrays that stay in memory until `dump`.

A function that a later version of the program no longer has is listed in
`missing` and reports zero calls, so the benchmark keeps running across
refactors that delete or rename layers.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

SPANS = {
    "netform": ("rollout", "sample_slice"),
    "scenario": ("advance_state", "step_defender_memory", "step_attacker_memory",
                 "encode_defender_features", "encode_attacker_features",
                 "level0_defender", "level0_attacker", "transition", "simulate",
                 "as_netform"),
    "neural": ("forward", "td_gradient", "apply_update"),
    "levelk": ("select_action", "semi_batch_update", "train_level",
               "build_hierarchy", "evaluate"),
    "experiment": ("load_config", "save_policy", "load_policy", "write_csv",
                   "run_train", "run_sweep", "run_trace"),
    "cli": ("main",),
}
# Traced one by one, reported summed as scenario.codecs.
CODECS = ("state_to_vec", "state_from_vec", "defender_memory_to_vec",
          "defender_memory_from_vec", "attacker_memory_to_vec",
          "attacker_memory_from_vec")
# Classes whose `contains` calls are counted (no span) as netform.space_checks.
SPACES = ("FiniteDiscrete", "BoundedReal", "RealVector")
# span -> (counter, path parameter, file under that path); sizes are read
# before the call for reads and after it for writes.
FILE_IO = {
    "experiment.load_config": ("experiment.bytes_read", "path", None),
    "experiment.load_policy": ("experiment.bytes_read", "path", None),
    "experiment.save_policy": ("experiment.bytes_written", "path", None),
    "experiment.write_csv": ("experiment.bytes_written", "path", None),
    "experiment.run_train": ("experiment.bytes_written", "out_dir", "manifest.json"),
}
COUNTERS = ("netform.space_checks", "experiment.bytes_written",
            "experiment.bytes_read")
RATIOS = ("levelk.train_level.update_share", "levelk.train_level.rollout_share",
          "levelk.select_action.explore_fraction")
# Traced episodes_per_s over untraced episodes_per_s, measured by workload.py.
OVERHEAD = "tracing.episodes_per_s_ratio"


def span_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in SPANS.items() for fn in fns]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for span in span_names() + ["scenario.codecs"]:
        names += [f"{span}.calls", f"{span}.self_s"]
    return names + list(COUNTERS) + list(RATIOS) + [OVERHEAD]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: collections.Counter[str] = collections.Counter()
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        modules = {name.rpartition(".")[2]: module
                   for name, module in sys.modules.items()
                   if name.startswith("gridgame.") and module is not None}
        for module, fns in SPANS.items():
            for fn in fns:
                self._trace(modules, module, fn, f"{module}.{fn}")
        for fn in CODECS:
            self._trace(modules, "scenario", fn, f"scenario.{fn}")
        netform = modules.get("netform")
        for cls_name in SPACES:
            cls = getattr(netform, cls_name, None)
            if cls is None or not hasattr(cls, "contains"):
                self.missing.append(f"netform.{cls_name}.contains")
                continue
            self._patch(cls, "contains", self._counting(cls.contains))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _trace(self, modules, module: str, fn: str, label: str) -> None:
        original = getattr(modules.get(module), fn, None)
        if original is None:
            self.missing.append(label)
            return
        wrapper = self._span(label, original)
        if label in FILE_IO:
            wrapper = self._file_io(label, original, wrapper)
        for namespace in modules.values():
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    self._patch(namespace, attr, wrapper)

    def _span(self, label: str, fn):
        nid = len(self.names)
        self.names.append(label)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
        return wrapper

    def _counting(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["netform.space_checks"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _file_io(self, label: str, original, inner):
        counter, param, child = FILE_IO[label]
        signature = inspect.signature(original)
        if param not in signature.parameters:
            self.missing.append(f"{label}({param})")
            return inner
        counts = self.counts
        reads = counter.endswith("bytes_read")

        def size(args, kwargs) -> int:
            path = Path(signature.bind(*args, **kwargs).arguments[param])
            path = path / child if child else path
            return path.stat().st_size if path.is_file() else 0

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if reads:
                counts[counter] += size(args, kwargs)
            result = inner(*args, **kwargs)
            if not reads:
                counts[counter] += size(args, kwargs)
            return result
        return wrapper

    # -- reporting ----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.name)

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: calls, self time, counters and ratios."""
        label = {lbl: i for i, lbl in enumerate(self.names)}
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parents >= 0
        children = np.zeros_like(duration)
        np.add.at(children, parents[nested], duration[nested])
        own = duration - children
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=own, minlength=len(self.names))
        parent_name = np.full_like(names, -1)
        parent_name[nested] = names[parents[nested]]

        def of(span: str, values) -> float:
            return float(values[label[span]]) if span in label else 0.0

        metrics: dict[str, float] = {}
        for span in span_names():
            metrics[f"{span}.calls"] = of(span, calls)
            metrics[f"{span}.self_s"] = of(span, self_s)
        codecs = [f"scenario.{fn}" for fn in CODECS]
        metrics["scenario.codecs.calls"] = sum(of(c, calls) for c in codecs)
        metrics["scenario.codecs.self_s"] = sum(of(c, self_s) for c in codecs)
        for counter in COUNTERS:
            metrics[counter] = float(self.counts[counter])

        def inclusive(span: str, under: str | None = None) -> float:
            if span not in label or (under is not None and under not in label):
                return 0.0
            mask = names == label[span]
            if under is not None:
                mask &= parent_name == label[under]
            return float(duration[mask].sum())

        train_s = inclusive("levelk.train_level")
        for key, span in (("update_share", "levelk.semi_batch_update"),
                          ("rollout_share", "netform.rollout")):
            share = inclusive(span, "levelk.train_level") / train_s if train_s else 0.0
            metrics[f"levelk.train_level.{key}"] = share
        # An exploratory action skips the Q-network, so a select_action span
        # with no forward child is an exploration.
        selects = metrics["levelk.select_action.calls"]
        explore = 0.0
        if selects and "neural.forward" in label and "levelk.select_action" in label:
            forward_parents = parents[(names == label["neural.forward"])
                                      & (parent_name == label["levelk.select_action"])]
            explore = 1.0 - np.unique(forward_parents).size / selects
        metrics["levelk.select_action.explore_fraction"] = explore
        return metrics

    def dump(self, path: Path) -> None:
        """Write every span (name index, parent index, start, end) to .npz."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))

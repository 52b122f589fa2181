"""In-memory span recorder that wraps clusterssl's public layer functions.

Each wrapper is installed where its caller looks the name up (for example
`clusterssl.clustering.hungarian_solve`, not `clusterssl.assignment`), so
only calls made by the program are recorded. Wrappers read the clock and
argument shapes only; they never touch a random generator, so a traced
run produces the same bytes as an untraced one.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _rows(args, kwargs, result):
    return int(args[1].shape[0])


def _augment_info(args, kwargs, result):
    return [args[0].kind, int(len(args[1]))]


def _rebind_info(args, kwargs, result):
    # (images whose binding changed, images in the solved batch)
    return [int(result), int(args[1].image_indices.shape[0])]


def _solve_info(args, kwargs, result):
    return list(args[0].shape)


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


def _mask_rate(args, kwargs, result):
    return result.mask_rate


def _confident(args, kwargs, result):
    return result.confident_count


# (module, attribute path, span name, info extractor)
LAYER_POINTS = (
    ("clusterssl.config", "load_config", "config.load", None),
    ("clusterssl.config", "build_experiment", "data.build", None),
    ("clusterssl.trainer", "train", "trainer.train", None),
    ("clusterssl.trainer", "evaluate", "trainer.evaluate", None),
    ("clusterssl.trainer", "save_checkpoint", "trainer.checkpoint_write", _file_size),
    ("clusterssl.trainer", "load_checkpoint", "trainer.checkpoint_read", None),
    ("clusterssl.trainer", "topk_permutation_accuracy", "trainer.topk", None),
    ("clusterssl.trainer", "clustering_accuracy", "assignment.kbest", None),
    ("clusterssl.trainer", "murty_kbest", "assignment.kbest", None),
    ("clusterssl.trainer", "run_epoch", "fixmatch.epoch", _mask_rate),
    ("clusterssl.trainer", "clustering_epoch", "clustering.epoch", _confident),
    ("clusterssl.trainer", "rotation_epoch", "clustering.rotation", None),
    ("clusterssl.clustering", "rotation_epoch", "clustering.rotation", None),
    ("clusterssl.clustering", "hungarian_solve", "assignment.solve", _solve_info),
    ("clusterssl.clustering", "TargetPool.rebind", "assignment.rebind", _rebind_info),
    ("clusterssl.clustering", "apply_batch", "augment", _augment_info),
    ("clusterssl.fixmatch", "apply_batch", "augment", _augment_info),
    ("clusterssl.network", "Model.forward", "network.forward", _rows),
    ("clusterssl.network", "Model.backward", "network.backward", None),
    ("clusterssl.optim", "Sgd.step", "optim.step", None),
    ("clusterssl.optim", "EmaState.update", "optim.ema", None),
)


class Tracer:
    """Records spans as [id, parent, root, name, start, end, info] lists."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent[0] if parent else None,
                parent[2] if parent else len(self.spans), name, time.perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str, info=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span[6] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        for module_name, attr_path, name, info in LAYER_POINTS:
            owner = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, info))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: Path) -> None:
        t0 = self.spans[0][4] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, root, name, start, end, info in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "parent": parent, "name": name,
                    "start": start - t0, "end": end - t0, "info": info,
                }) + "\n")


class SpanTable:
    """Per-name aggregates over the spans under roots with a given name."""

    def __init__(self, tracer: Tracer, root_name: str):
        roots = {s[0] for s in tracer.spans if s[3] == root_name and s[1] is None}
        self.spans = [s for s in tracer.spans if s[2] in roots]
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s[1] is not None:
                child_time[s[1]] = child_time.get(s[1], 0.0) + (s[5] - s[4])
        self._child_time = child_time
        self.n_roots = len(roots)

    def of(self, name: str) -> list[list]:
        return [s for s in self.spans if s[3] == name]

    def durations(self, name: str) -> list[float]:
        return [s[5] - s[4] for s in self.of(name)]

    def busy(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        return sum(s[5] - s[4] - self._child_time.get(s[0], 0.0) for s in self.of(name))

    def infos(self, name: str) -> list:
        return [s[6] for s in self.of(name)]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]; 0.0 for no values."""
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced job: name -> (value, unit)."""
    train = SpanTable(tracer, "trainer.train")
    evals = SpanTable(tracer, "bench.eval")
    setup = SpanTable(tracer, "bench.setup")
    train_s = train.busy("trainer.train")
    n_evals = max(1, evals.n_roots)

    def share(seconds: float) -> float:
        return seconds / train_s if train_s > 0 else 0.0

    rebinds = train.infos("assignment.rebind")
    changed = sum(r[0] for r in rebinds)
    solved_imgs = sum(r[1] for r in rebinds)
    assign_busy = train.busy("assignment.solve") + train.busy("assignment.rebind")

    aug_busy = train.busy("augment")
    per_kind = {}
    for kind in ("weak", "strong", "cluster"):
        spans = [s for s in train.of("augment") if s[6][0] == kind]
        imgs = sum(s[6][1] for s in spans)
        per_kind[kind] = sum(s[5] - s[4] for s in spans) / imgs * 1e6 if imgs else 0.0

    fwd_busy = train.busy("network.forward")
    bwd_busy = train.busy("network.backward")
    fwd_rows = sum(train.infos("network.forward"))
    mask_rates = train.infos("fixmatch.epoch")
    ckpt_sizes = train.infos("trainer.checkpoint_write")

    return {
        "assignment.solve_calls": (len(train.of("assignment.solve")), "count"),
        "assignment.solve_ms.p50": (percentile(train.durations("assignment.solve"), 50) * 1e3, "ms"),
        "assignment.solve_ms.p90": (percentile(train.durations("assignment.solve"), 90) * 1e3, "ms"),
        "assignment.busy_s": (assign_busy, "s"),
        "assignment.share": (share(assign_busy), "ratio"),
        "assignment.rebind_useful": (changed / solved_imgs if solved_imgs else 0.0, "ratio"),
        "assignment.kbest_s": (evals.busy("assignment.kbest") / n_evals, "s"),
        "augment.calls": (len(train.of("augment")), "count"),
        "augment.busy_s": (aug_busy, "s"),
        "augment.share": (share(aug_busy), "ratio"),
        "augment.weak.us_per_img": (per_kind["weak"], "us"),
        "augment.strong.us_per_img": (per_kind["strong"], "us"),
        "augment.cluster.us_per_img": (per_kind["cluster"], "us"),
        "network.forward.calls": (len(train.of("network.forward")), "count"),
        "network.forward.busy_s": (fwd_busy, "s"),
        "network.backward.busy_s": (bwd_busy, "s"),
        "network.rows_per_s": (fwd_rows / fwd_busy if fwd_busy else 0.0, "1/s"),
        "network.share": (share(fwd_busy + bwd_busy), "ratio"),
        "optim.step.calls": (len(train.of("optim.step")), "count"),
        "optim.step.busy_s": (train.busy("optim.step"), "s"),
        "optim.step_ms.p50": (percentile(train.durations("optim.step"), 50) * 1e3, "ms"),
        "optim.ema.busy_s": (train.busy("optim.ema"), "s"),
        "fixmatch.epoch_s.p50": (percentile(train.durations("fixmatch.epoch"), 50), "s"),
        "fixmatch.self_s": (train.self_time("fixmatch.epoch"), "s"),
        "fixmatch.mask_rate": (statistics.fmean(mask_rates) if mask_rates else 0.0, "ratio"),
        "clustering.epoch_s.p50": (percentile(train.durations("clustering.epoch"), 50), "s"),
        "clustering.self_s": (train.self_time("clustering.epoch"), "s"),
        "clustering.rotation_s": (train.busy("clustering.rotation"), "s"),
        "clustering.confident_count": (sum(train.infos("clustering.epoch")), "count"),
        "trainer.evaluate.busy_s": (train.busy("trainer.evaluate"), "s"),
        "trainer.checkpoint_write_ms.p50": (
            percentile(train.durations("trainer.checkpoint_write"), 50) * 1e3, "ms"),
        "trainer.checkpoint_bytes": (ckpt_sizes[-1] if ckpt_sizes else 0, "bytes"),
        "trainer.checkpoint_read_ms.p50": (
            percentile(evals.durations("trainer.checkpoint_read"), 50) * 1e3, "ms"),
        "trainer.topk_s": (evals.busy("trainer.topk") / n_evals, "s"),
        "trainer.self_s": (train.self_time("trainer.train"), "s"),
        "data.build_s": (statistics.median(setup.durations("data.build")), "s"),
        "config.load_s": (statistics.median(setup.durations("config.load")), "s"),
    }

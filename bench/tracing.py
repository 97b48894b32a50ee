"""Spans around calls into the program, recorded from outside it.

``Tracer.install`` replaces each target with a wrapper through the module
or class attribute the program's own callers look it up by, and
``uninstall`` puts the originals back; no line of the program changes.
Spans (name, start, end, parent, root) live in flat in-memory arrays and are
written out once, at the end of the run.  The root is the outermost span, so
the spans of one replication or one stream share it.  Wrappers cannot reach
into pool workers, so traced work runs in one process.
"""

from __future__ import annotations

import functools
import mmap
import multiprocessing
import time
from array import array

import numpy as np

import reference
import sparsewatch.engine as engine
import sparsewatch.inference as inference
import sparsewatch.sampling as sampling
import sparsewatch.simgen as simgen


def _targets():
    """(owner, attribute, span name) for every wrapped call site."""
    return [
        (engine, "init", "engine.init"),
        (engine, "step", "engine.step"),
        (engine, "collect_h0_trajectories", "engine.collect_h0_trajectories"),
        (engine, "search_threshold", "engine.search_threshold"),
        (engine, "evaluate", "engine.evaluate"),
        (engine, "fit", "inference.fit"),
        (inference, "absorb_sample", "inference.absorb_sample"),
        (inference, "vb_coordinate_sweep", "inference.vb_coordinate_sweep"),
        (inference, "update_background", "inference.update_background"),
        (engine, "lambda_stat", "detection.lambda_stat"),
        (engine, "draw_anomaly_sample", "sampling.draw_anomaly_sample"),
        (engine, "synthesize_anomaly_signal", "sampling.synthesize_anomaly_signal"),
        (engine, "score_variables", "sampling.score_variables"),
        (engine, "select_top_m", "sampling.select_top_m"),
        (sampling.OracleScorer, "__init__", "sampling.OracleScorer.init"),
        (sampling.OracleScorer, "select", "sampling.OracleScorer.select"),
        (engine, "gen_stream", "simgen.gen_stream"),
        (simgen, "gen_stream", "simgen.gen_stream"),
    ]


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.root = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._saved: list = []
        # fit's observed subsets and convergence flags, in call order
        self.fit_subsets: list = []
        self.fit_converged: list = []

    # ── recording ──

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name_id)
        stack = self._stack
        parent = stack[-1] if stack else -1
        self.name_id.append(name_id)
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else idx)
        self.end.append(0)
        stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str, after=None):
        name_id = self._id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_fit(self, args, result) -> None:
        self.fit_subsets.append(args[1])
        self.fit_converged.append(result.converged)

    def install(self) -> None:
        for owner, attr, name in _targets():
            fn = owner.__dict__[attr]
            after = self._after_fit if name == "inference.fit" else None
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, after))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # ── results ──

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive ns, self ns)."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        if names.size == 0:
            return {}
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        excl = np.bincount(names, weights=own, minlength=k)
        return {name: (int(calls[i]), float(incl[i]), float(excl[i]))
                for i, name in enumerate(self.names)}

    def subset_repeat_share(self) -> float:
        """Share of fit calls whose sorted subset was observed earlier in the process."""
        seen, repeats = set(), 0
        for z in self.fit_subsets:
            key = tuple(sorted(int(i) for i in z))
            repeats += key in seen
            seen.add(key)
        return repeats / len(self.fit_subsets) if self.fit_subsets else 0.0

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            root=np.frombuffer(self.root, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


class StepTimer:
    """Times every engine.step call, in this process and in pool workers it forks.

    The one wrapper an untraced run carries: two clock reads and a locked
    counter per step.  Once every ``reference.GAUGE_INTERVAL_NS`` of a
    process's time it also takes one reference sample, before the step's
    clock starts.  Step start times, latencies and the reference samples go
    to anonymous shared mappings, which forked workers inherit and write
    into; the parent reads them after the pool has ended.  Calls past the
    first 2^20 steps or 2^16 samples of a run are not recorded.
    """

    def __init__(self):
        self._steps = _SharedLog(1 << 20)
        self._gauge = _SharedLog(1 << 16)

    @property
    def step_start_ns(self) -> np.ndarray:
        return self._steps.column(0)

    @property
    def latency_ns(self) -> np.ndarray:
        return self._steps.column(1)

    def speed(self) -> reference.Speed:
        return reference.Speed(self._gauge.column(0), self._gauge.column(1))

    def __enter__(self):
        self._original = engine.step
        original, steps, gauge = self._original, self._steps, self._gauge
        clock, sample = time.perf_counter_ns, reference.sample_ns
        interval = reference.GAUGE_INTERVAL_NS
        last_sample = [clock()]  # per process: a forked worker starts from its copy
        gauge.append(last_sample[0], sample())

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = clock()
            if start - last_sample[0] > interval:
                gauge.append(start, sample())
                last_sample[0] = start = clock()
            out = original(*args, **kwargs)
            steps.append(start, clock() - start)
            return out

        engine.step = timed
        return self

    def __exit__(self, *exc):
        engine.step = self._original
        return False


class _SharedLog:
    """Rows of two int64 in an anonymous shared mapping, appended under a lock."""

    def __init__(self, capacity: int):
        self._buffer = mmap.mmap(-1, capacity * 16)
        self._rows = np.frombuffer(self._buffer, dtype=np.int64).reshape(capacity, 2)
        self._count = multiprocessing.Value("q", 0)

    def append(self, a: int, b: int) -> None:
        with self._count.get_lock():
            i = self._count.value
            self._count.value = i + 1
        if i < self._rows.shape[0]:
            self._rows[i] = (a, b)

    def column(self, j: int) -> np.ndarray:
        return self._rows[: min(self._count.value, self._rows.shape[0]), j].copy()

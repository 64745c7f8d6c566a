"""Outside-in span tracer for osrkit.

The tracer edits no source file. While installed it replaces, in every
``osrkit.<mod>`` submodule, each module attribute that names a public
osrkit function with a timing wrapper, so a call is recorded at the site
the caller looks it up: ``total_loss`` as ``osrkit.train`` sees it,
``pairwise_scores`` as ``osrkit.losses`` sees it, ``roc_points`` as
``osrkit.evaluate`` itself sees it. A function imported into several
modules is wrapped at each of them. ``restore`` puts every original back.

Submodules are reached with ``importlib.import_module``: the package
re-exports the functions ``train`` and ``evaluate``, which hide the
submodules of the same name, so ``import osrkit.train as T`` would bind
the function.

Spans (name, start, end, parent) stay in memory, in flat int64 arrays,
until ``summary`` reads them at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import time
import types
from array import array
from contextlib import contextmanager

import numpy as np

PACKAGE = "osrkit"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(index: int, name: str):
    return lambda args, kwargs, result: os.path.getsize(_arg(args, kwargs, index, name))


# Work counted at the same boundaries as the spans: span name -> (counter, how).
COUNTERS = {
    "model.embed_forward": ("rows", lambda a, k, r: len(_arg(a, k, 1, "inputs"))),
    "model.embed_backward": ("rows", lambda a, k, r: len(_arg(a, k, 1, "grad_features"))),
    "evaluate.roc_points": ("thresholds", lambda a, k, r: len(r) - 1),
    "evaluate.write_roc_csv": ("rows", lambda a, k, r: len(_arg(a, k, 1, "curve"))),
    "evaluate.write_oscr_csv": ("rows", lambda a, k, r: len(_arg(a, k, 1, "curve"))),
    "data.load_features": ("bytes", _file_bytes(0, "path")),
    "data.save_features": ("bytes", _file_bytes(0, "path")),
    "model.load_checkpoint": ("bytes", _file_bytes(0, "path")),
    "model.save_checkpoint": ("bytes", _file_bytes(0, "path")),
}


class Tracer:
    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _intern(self, name: str) -> int:
        return self._ids.setdefault(name, len(self._ids))

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into osrkit.

        Records nothing while the tracer is not installed.
        """
        if not self._patched:
            yield
            return
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, sid: int) -> int:
        idx = len(self.start)
        self.name.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, span_name: str, fn):
        sid = self._intern(span_name)
        counter = COUNTERS.get(span_name)
        open_, close = self._open, self._close
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if counter is not None:
                key = f"{span_name}.{counter[0]}"
                counts[key] = counts.get(key, 0) + counter[1](args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(pkg.__path__):
            mod = importlib.import_module(f"{PACKAGE}.{info.name}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if not fn.__module__.startswith(PACKAGE + "."):
                    continue
                span_name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                setattr(mod, attr, self._wrap(span_name, fn))
                self._patched.append((mod, attr, fn))

    def restore(self) -> None:
        while self._patched:
            mod, attr, fn = self._patched.pop()
            setattr(mod, attr, fn)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Vectorised statistics over every recorded span."""

    def __init__(self, tracer: Tracer) -> None:
        self._ids = dict(tracer._ids)
        self.counts = dict(tracer.counts)
        self.name = np.frombuffer(tracer.name, dtype=np.int64)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int64)
        end = np.frombuffer(tracer.end, dtype=np.int64)
        self.dur_ns = (end - np.frombuffer(tracer.start, dtype=np.int64)).astype(np.float64)
        has_parent = self.parent >= 0
        child_ns = np.bincount(
            self.parent[has_parent], weights=self.dur_ns[has_parent], minlength=self.name.size
        )
        self.self_ns = self.dur_ns - child_ns

    def mask(self, name: str) -> np.ndarray:
        sid = self._ids.get(name)
        if sid is None:
            return np.zeros(self.name.size, dtype=bool)
        return self.name == sid

    def under(self, name: str) -> np.ndarray:
        """Spans that have a span called ``name`` among their ancestors."""
        target = self.mask(name)
        flag = np.zeros(self.name.size, dtype=bool)
        cur = self.parent.copy()
        live = cur >= 0
        while live.any():
            flag[live] |= target[cur[live]]
            cur[live] = self.parent[cur[live]]
            live = cur >= 0
        return flag

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def busy_s(self, name: str) -> float:
        return float(self.dur_ns[self.mask(name)].sum()) / 1e9

    def self_s(self, name: str) -> float:
        return float(self.self_ns[self.mask(name)].sum()) / 1e9

    def percentile_us(self, name: str, q: float) -> float:
        d = self.dur_ns[self.mask(name)]
        return float(np.percentile(d, q)) / 1e3 if d.size else 0.0

    def calls_under(self, name: str, ancestor: str) -> int:
        return int((self.mask(name) & self.under(ancestor)).sum())

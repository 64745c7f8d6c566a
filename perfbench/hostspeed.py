"""Reference kernels: how fast the shared host runs right now.

On a shared host the same code runs up to 2x slower for seconds at a time
while other tenants load the cores. A fixed reference kernel, timed just
before and just after each operation, slows down with it. The end-to-end
time metrics divide each operation's time by the mean of those two
reference times, giving times in units of the kernel (``ref``). That
cancels the host's drift, and a change to osrkit still moves them: the
kernels call no osrkit code. Raw seconds stay in the record.

A kernel tracks the drift best when its instruction mix matches the
operation's, so there are two, one per kind of hot loop osrkit has:

- ``step``: numpy calls on the training shapes (B=32, D=8, K=4), where
  per-call overhead dominates, as in a training step;
- ``sweep``: comparisons and counts over a 16,000-element vector, as in
  the per-threshold ROC/OSCR sweeps.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_rng = np.random.default_rng(0)
_F = _rng.standard_normal((32, 8))
_W = _rng.standard_normal((8, 8))
_P = _rng.standard_normal((4, 8))
_S = np.sort(_rng.standard_normal(16000))
_K = _rng.random(16000) < 0.5


def _step() -> float:
    acc = 0.0
    for _ in range(300):
        z = np.maximum(_F @ _W, 0.0) @ _W
        d = z[:, None, :] - _P[None, :, :]
        s = np.einsum("bkd,bkd->bk", d, d) / 8.0 - z @ _P.T
        e = np.exp(s - s.max(axis=1, keepdims=True))
        acc += float((e / e.sum(axis=1, keepdims=True)).argmax(axis=1).sum())
    return acc


def _sweep() -> float:
    acc = 0
    for i in range(0, _S.size, 40):
        sel = _S >= _S[i]
        acc += int((sel & _K).sum()) + int((sel & ~_K).sum())
    return float(acc)


KERNELS = {"step": _step, "sweep": _sweep}


def reference_s(kind: str) -> float:
    """Seconds the ``kind`` kernel takes now (about 10 ms on an idle host)."""
    t0 = perf_counter()
    KERNELS[kind]()
    return perf_counter() - t0

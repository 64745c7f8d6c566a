"""osrkit benchmark: one closed-loop client, three workloads, outside-in tracing.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload standard --seed 0 --seconds 40 --trace 0

Workloads (see ``workloads.py``); a *pass* is one unit of the workload and
an *operation* one element of it:

- ``standard``: the pinned acceptance recipe, full and euclidean arms on
  seeds seed..seed+4, each trained (1,140 Adam steps at B=32, D=8, K=4)
  and evaluated: 10 operations. Training is ~98% of the work.
- ``eval_large``: one standard-recipe model, trained in set-up, evaluated
  3 times per pass on N = 16,000 (8k known, 8k unknown). The per-threshold
  ROC/OSCR sweeps are most of the work; nothing is trained while timed.
- ``cli_roundtrip``: ``gen-data --csv``, ``train``, ``eval`` through
  ``osrkit.cli.main``, 3 round trips per pass on seeds seed..seed+2
  (6 classes x 1,000 x 16 dims, dims 16,32,8, 3 epochs). The CSV,
  checkpoint and curve files dominate.

Set-up runs several times and ``setup_s`` is its median, in seconds. One
warm-up operation runs untimed. The loop is closed with one client: the
next operation starts when the previous one has returned. Operations
repeat, pass after pass, until the next one would overrun ``--seconds``;
at least one whole pass always runs. The seed only chooses the inputs
made in set-up; osrkit receives those inputs and nothing else.

The host is shared and its speed drifts by up to 2x within seconds, so
the gated time metrics are in units of a reference kernel timed around
each operation (``ref``, see ``hostspeed.py``): ``wall_ref`` is one pass
(each operation's mean time, summed over a pass), ``op_ref_p50`` the
median operation, ``train_samples_per_ref`` and ``eval_samples_per_ref``
the throughputs. The same timings in seconds (``wall_s``, ``op_s_p50``,
``train_samples_per_s``, ``eval_samples_per_s``) and the kernel's own
``ref_ms_p50`` are printed too and kept in the record.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, normalised
to one pass; ``trace.overhead_s`` is the traced pass minus the untraced
pass. The last stdout line is the result object; the line before it is
the full record with the environment and the sample counts.

Which end-to-end metric each layer metric should move:

- ``losses.*``, ``numerics.*``, ``train.*``, ``model.embed_*``:
  ``train_samples_per_ref`` on ``standard``; ``model.embed_forward`` also
  ``eval_samples_per_ref`` on ``eval_large`` once the sweeps are fast.
- ``evaluate.{roc_points,oscr,auroc,openset_score,evaluate}.*``:
  ``eval_samples_per_ref`` and ``wall_ref`` on ``eval_large``.
- ``data.*``, ``model.{save,load}_checkpoint.*``, ``evaluate.write_*``,
  ``config.*``, ``cli.*``: ``op_ref_p50`` and ``wall_ref`` on ``cli_roundtrip``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up runs this many times before the timed loop; when one set-up costs
# under RESETUP_SHARE of an operation it also repeats before every timed
# operation, so that its median samples the whole run, not its first second.
SETUP_REPS = 7
RESETUP_SHARE = 0.05

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"


def import_osrkit():
    """Import osrkit from this checkout's ``src`` and nowhere else."""
    if not (SRC / "osrkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no osrkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("osrkit")
    if Path(pkg.__file__).resolve().parent != SRC / "osrkit":
        raise SystemExit(f"perfbench: imported osrkit from {pkg.__file__}, not {SRC}")
    return pkg


def _blas_info() -> dict:
    import ctypes

    import numpy as np

    info = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    # Ask the loaded OpenBLAS how many threads it will use.
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    break
    except OSError:
        pass
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "git_sha": _git_sha(),
        "src_loc": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "osrkit").rglob("*.py"))
        ),
    }


class Ledger:
    """Attempted and failed operations, and the first output seen per input."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_fingerprint: dict[object, str] = {}

    def record(self, key, outcome, pass_problems=()) -> None:
        self.attempted += 1
        problems = [*outcome.problems, *pass_problems]
        if outcome.fingerprint:
            first = self.first_fingerprint.setdefault(key, outcome.fingerprint)
            if first != outcome.fingerprint:
                problems.append("output differs from the first run with the same inputs")
        if problems:
            self.failed += 1
            self.problems.extend(f"{key}: {p}" for p in problems)


def timed_setup(workload) -> float:
    t0 = perf_counter()
    workload.setup()
    return perf_counter() - t0


def closed_loop(workload, ledger: Ledger, tracer, seconds: float, trace: bool,
                resetup: list[float] | None):
    """Run passes back to back until the next operation would overrun ``seconds``.

    At least one whole pass runs, and with ``trace`` at least one traced
    and one untraced pass, alternating. With ``resetup``, set-up repeats
    before each operation and its time is appended there. Returns the
    outcomes by traced-ness.
    """
    ops = workload.pass_ops()
    timed = {False: [], True: []}
    whole = {False: 0, True: 0}
    op_elapsed: list[float] = []
    started = perf_counter()
    traced = False
    stop = False
    while not stop:
        keyed = []
        with tracer.installed() if traced else nullcontext():
            for key, op in ops:
                enough = whole[False] and (whole[True] or not trace)
                if enough and seconds - (perf_counter() - started) < statistics.median(op_elapsed):
                    stop = True
                    break
                if resetup is not None:
                    resetup.append(timed_setup(workload))
                t0 = perf_counter()
                keyed.append((key, workload.run(op)))
                op_elapsed.append(perf_counter() - t0)
        complete = len(keyed) == len(ops)
        pass_problems = workload.check_pass(keyed) if complete else []
        for key, outcome in keyed:
            ledger.record(key, outcome, pass_problems)
        timed[traced].extend(keyed)
        whole[traced] += complete
        traced = trace and not traced
    return timed


def pass_time(keyed, pass_keys: list, time_of) -> float:
    """Time of one pass: each operation's mean ``time_of``, summed over a pass.

    Works from a partial last pass without favouring the operations it holds.
    """
    by_key: dict[object, list[float]] = {}
    for key, outcome in keyed:
        by_key.setdefault(key, []).append(time_of(outcome))
    return sum(statistics.fmean(by_key[key]) for key in pass_keys)


def seconds(outcome) -> float:
    return outcome.seconds


def in_ref(outcome) -> float:
    """Operation time in units of the reference kernel timed just before it."""
    return outcome.seconds / outcome.ref_s


def layer_metrics(s, passes: int, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced passes, per pass unless a ratio."""
    out: dict[str, tuple[float, str]] = {}

    def per_pass(name: str, value: float, unit: str) -> None:
        out[name] = (value / passes, unit)

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    for fn in ("losses.total_loss", "train.optimizer_step"):
        per_pass(f"{fn}.calls", s.calls(fn), "count")
        per_pass(f"{fn}.busy_s", s.busy_s(fn), "s")
        out[f"{fn}.p50_us"] = (s.percentile_us(fn, 50), "us")
        out[f"{fn}.p99_us"] = (s.percentile_us(fn, 99), "us")
    for fn in ("classification_loss", "margin_loss", "overconfidence_loss", "classification_logits"):
        per_pass(f"losses.{fn}.busy_s", s.busy_s(f"losses.{fn}"), "s")
    steps = s.calls("losses.total_loss")
    for fn in ("pairwise_scores", "pairwise_scores_backward", "as_matrix"):
        out[f"numerics.{fn}.calls_per_step"] = (
            ratio(s.calls_under(f"numerics.{fn}", "losses.total_loss"), steps), "1/step")
    for fn in ("pairwise_scores", "pairwise_scores_backward", "paired_distances"):
        per_pass(f"numerics.{fn}.busy_s", s.busy_s(f"numerics.{fn}"), "s")
    per_pass("train.train.steps", s.calls_under("train.optimizer_step", "train.train"), "count")
    per_pass("train.train.busy_s", s.busy_s("train.train"), "s")
    per_pass("train.train.self_s", s.self_s("train.train"), "s")
    for fn in ("embed_forward", "embed_backward"):
        name = f"model.{fn}"
        per_pass(f"{name}.calls", s.calls(name), "count")
        per_pass(f"{name}.rows", s.counts.get(f"{name}.rows", 0), "rows")
        per_pass(f"{name}.busy_s", s.busy_s(name), "s")
    for fn in ("roc_points", "oscr", "auroc"):
        per_pass(f"evaluate.{fn}.busy_s", s.busy_s(f"evaluate.{fn}"), "s")
    per_pass("evaluate.roc_points.thresholds", s.counts.get("evaluate.roc_points.thresholds", 0), "count")
    out["evaluate.openset_score.calls_per_eval"] = (
        ratio(s.calls_under("evaluate.openset_score", "evaluate.evaluate"),
              s.calls("evaluate.evaluate")), "1/eval")
    per_pass("evaluate.evaluate.self_s", s.self_s("evaluate.evaluate"), "s")
    for fn in ("load_features", "save_features"):
        name = f"data.{fn}"
        per_pass(f"{name}.calls", s.calls(name), "count")
        per_pass(f"{name}.bytes", s.counts.get(f"{name}.bytes", 0), "B")
        per_pass(f"{name}.busy_s", s.busy_s(name), "s")
    for fn in ("save_checkpoint", "load_checkpoint"):
        name = f"model.{fn}"
        per_pass(f"{name}.bytes", s.counts.get(f"{name}.bytes", 0), "B")
        per_pass(f"{name}.busy_s", s.busy_s(name), "s")
    for fn in ("write_roc_csv", "write_oscr_csv"):
        name = f"evaluate.{fn}"
        per_pass(f"{name}.rows", s.counts.get(f"{name}.rows", 0), "rows")
        per_pass(f"{name}.busy_s", s.busy_s(name), "s")
    for fn in ("load_config", "build_split"):
        per_pass(f"config.{fn}.busy_s", s.busy_s(f"config.{fn}"), "s")
    for sub in ("gen-data", "train", "eval"):
        per_pass(f"cli.{sub}.busy_s", s.busy_s(f"cli.{sub}"), "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def end_to_end_metrics(workload, setup_s, setup_refs, keyed, pass_keys, ledger):
    """The end-to-end metrics, and the same timings in raw seconds for the record."""
    done = [o for _, o in keyed if o.quality is not None]
    if not done:
        raise SystemExit("perfbench: every timed operation failed: " + "; ".join(ledger.problems[:5]))
    if workload.name == "eval_large":
        # nothing trains while timed; these are the set-up trainings of the same recipe
        trainings = [(n, t, ref) for (n, t), ref in zip(workload.setup_trainings, setup_refs)]
    else:
        trainings = [(o.train_samples, o.train_s, o.ref_s) for o in done]
    evals = [(o.eval_samples, o.eval_s, o.ref_s) for o in done]

    def rate(items, normalised: bool) -> float:
        return sum(n for n, _, _ in items) / sum(t / ref if normalised else t for _, t, ref in items)

    # every repeat of an operation gives the same result, so average one pass
    quality = {key: o.quality for key, o in keyed if o.quality is not None}
    pass_quality = [quality[key] for key in pass_keys if key in quality]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_ref": (pass_time(keyed, pass_keys, in_ref), "ref"),
        "op_ref_p50": (statistics.median(map(in_ref, done)), "ref"),
        "train_samples_per_ref": (rate(trainings, True), "1/ref"),
        "eval_samples_per_ref": (rate(evals, True), "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((ledger.attempted - ledger.failed) / ledger.attempted, "1"),
        "closed_accuracy_mean": (statistics.fmean(q[0] for q in pass_quality), "1"),
        "auroc_mean": (statistics.fmean(q[1] for q in pass_quality), "1"),
        "oscr_mean": (statistics.fmean(q[2] for q in pass_quality), "1"),
    }
    raw = {
        "wall_s": (pass_time(keyed, pass_keys, seconds), "s"),
        "op_s_p50": (statistics.median(map(seconds, done)), "s"),
        "train_samples_per_s": (rate(trainings, False), "1/s"),
        "eval_samples_per_s": (rate(evals, False), "1/s"),
        "ref_ms_p50": (1000.0 * statistics.median(o.ref_s for o in done), "ms"),
    }
    return metrics, raw


def tail_percentile(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    pct = 100.0 * (1.0 - 10.0 / n)
    return {"pct": pct, "value": float(statistics.quantiles(values, n=1000)[int(pct * 10) - 1])}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["standard", "eval_large", "cli_roundtrip"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--quick", action="store_true",
                   help="reduced sizes for the smoke check; frozen-mean check off")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # one BLAS thread; set before numpy is first imported
        os.environ[var] = "1"
    import_osrkit()
    from tracer import Tracer
    from hostspeed import reference_s
    from workloads import WORKLOADS

    tracer = Tracer()
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.quick, workdir, tracer.span)
    ledger = Ledger()
    try:
        setup_s, setup_refs = [], []
        for _ in range(SETUP_REPS):
            before = reference_s("step")  # the training some set-ups do is step-like
            setup_s.append(timed_setup(workload))
            setup_refs.append(0.5 * (before + reference_s("step")))
        pass_keys = [k for k, _ in workload.pass_ops()]
        key, op = workload.pass_ops()[0]
        t0 = perf_counter()
        ledger.record(key, workload.run(op))  # warm-up, checked but not timed
        cheap = statistics.median(setup_s) < RESETUP_SHARE * (perf_counter() - t0)
        resetup = setup_s if cheap and not args.trace else None
        timed = closed_loop(workload, ledger, tracer, args.seconds, bool(args.trace), resetup)
    finally:
        tracer.restore()
        workload.close()

    raw = {}
    if args.trace:
        overhead = pass_time(timed[True], pass_keys, seconds) - pass_time(timed[False], pass_keys, seconds)
        metrics = layer_metrics(tracer.summary(), len(timed[True]) / len(pass_keys), overhead)
    else:
        metrics, raw = end_to_end_metrics(workload, setup_s, setup_refs, timed[False], pass_keys, ledger)
    outcomes = [o for _, o in timed[False]]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "clients": 1,
        "loop": "closed",
        "samples": {
            "setup_reps": len(setup_s),
            "ops": len(outcomes),
            "traced_ops": len(timed[True]),
            "ops_per_pass": len(pass_keys),
        },
        "op_s_tail": tail_percentile([o.seconds for o in outcomes if o.quality is not None]),
        "op_s": [o.seconds for o in outcomes],
        "setup_s": setup_s,
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_timings": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "problems": ledger.problems[:20],
    }
    for name, (value, unit) in {**metrics, **raw}.items():
        print(f"{name:45s} {value:16.6f} {unit}")
    print(json.dumps({"record": record}))
    ok = all(math.isfinite(v) for v, _ in metrics.values())
    result = {
        "correct": ledger.failed == 0 and ok,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads and the output checks each one runs.

Every workload builds its inputs from the workload seed in ``setup`` and
hands osrkit only those inputs. One *pass* is the workload's unit of work
(10 train+evaluate runs, 3 ``evaluate`` calls, or 3 CLI round trips); one
*operation* is one element of a pass. An operation times only its calls
into osrkit, then checks its outputs outside the timed region.

osrkit functions are looked up on their submodule at call time
(``T.train``, not a bound name), so the tracer's wrappers see the calls
the benchmark makes.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import shutil
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np
from hostspeed import reference_s

B = importlib.import_module("osrkit.benchmark")
C = importlib.import_module("osrkit.cli")
D = importlib.import_module("osrkit.data")
E = importlib.import_module("osrkit.evaluate")
T = importlib.import_module("osrkit.train")

# Acceptance means of the pinned recipe over seeds 0-4 (README table).
FROZEN = {"full_acc": 0.9340, "full_auroc": 0.8745, "euclidean_auroc": 0.7821}
BAND = 0.02
AUROC_TRAPEZOID_TOL = 1e-12


@dataclass
class Outcome:
    seconds: float = 0.0
    train_samples: int = 0
    train_s: float = 0.0
    eval_samples: int = 0
    eval_s: float = 0.0
    quality: tuple[float, float, float] | None = None  # closed accuracy, auroc, oscr
    fingerprint: str = ""
    ref_s: float = 0.0  # the workload's reference kernel, timed around the operation
    problems: list[str] = field(default_factory=list)


class Workload:
    """What every workload provides; ``setup`` and ``pass_ops`` are its own."""

    name = ""
    reference = "step"  # the hostspeed kernel whose mix matches the operations

    def run(self, op) -> Outcome:
        """Run one operation between two timings of the reference kernel.

        An exception fails the operation, not the run.
        """
        before = reference_s(self.reference)
        try:
            outcome = op()
        except Exception:  # noqa: BLE001 - counted as a failed operation and reported
            outcome = Outcome(problems=[traceback.format_exc(limit=-3).strip()])
        outcome.ref_s = 0.5 * (before + reference_s(self.reference))
        return outcome

    def check_pass(self, keyed: list[tuple[object, Outcome]]) -> list[str]:
        """Problems visible only across a whole pass."""
        return []

    def close(self) -> None:
        """Remove what set-up left on disk."""


def _trapezoid(xs: np.ndarray, ys: np.ndarray) -> float:
    return float(((xs[1:] - xs[:-1]) * (ys[1:] + ys[:-1]) * 0.5).sum())


def _curve_problems(acc: float, auroc: float, oscr: float, roc: np.ndarray) -> list[str]:
    problems = []
    area = _trapezoid(roc[:, 1], roc[:, 2])
    if abs(auroc - area) > AUROC_TRAPEZOID_TOL:
        problems.append(f"auroc {auroc!r} != ROC trapezoid {area!r}")
    if oscr > acc + 1e-12:
        problems.append(f"oscr {oscr!r} > closed accuracy {acc!r}")
    return problems


def _report_outcome(report) -> tuple[tuple[float, float, float], str, list[str]]:
    roc = np.array(report.roc_curve, dtype=np.float64)
    oscr_curve = np.array(report.oscr_curve, dtype=np.float64)
    quality = (report.closed_accuracy, report.auroc, report.oscr)
    digest = hashlib.sha256(np.array(quality).tobytes() + roc.tobytes() + oscr_curve.tobytes())
    return quality, digest.hexdigest(), _curve_problems(*quality, roc)


class Standard(Workload):
    """The pinned acceptance recipe: full and euclidean arms on seeds seed..seed+4."""

    name = "standard"

    def __init__(self, seed: int, quick: bool, workdir: Path, span):
        self.seeds = [seed] if quick else list(range(seed, seed + 5))
        self.epochs = 3 if quick else None
        self.check_frozen = seed == 0 and not quick

    def setup(self) -> None:
        splits = {s: B.benchmark_split(s) for s in self.seeds}
        runs = []
        for arm in ("full", "euclidean"):
            for s in self.seeds:
                cfg = B.benchmark_config(arm, s)
                if self.epochs is not None:
                    cfg = replace(cfg, epochs=self.epochs)
                runs.append(((arm, s), splits[s], cfg))
        self.runs = runs

    def pass_ops(self):
        return [(key, lambda split=split, cfg=cfg: self._op(split, cfg)) for key, split, cfg in self.runs]

    def _op(self, split, cfg) -> Outcome:
        t0 = perf_counter()
        embedder, bank, _ = T.train(split, cfg)
        t1 = perf_counter()
        report = E.evaluate(embedder, bank, split, cfg.loss)
        t2 = perf_counter()
        quality, digest, problems = _report_outcome(report)
        return Outcome(
            seconds=t2 - t0,
            train_samples=cfg.epochs * len(split.train),
            train_s=t1 - t0,
            eval_samples=len(split.test_known) + len(split.test_unknown),
            eval_s=t2 - t1,
            quality=quality,
            fingerprint=digest,
            problems=problems,
        )

    def check_pass(self, keyed: list[tuple[object, Outcome]]) -> list[str]:
        if not self.check_frozen:
            return []
        by_arm: dict[str, list[tuple[float, float, float]]] = {"full": [], "euclidean": []}
        for (arm, _), out in keyed:
            if out.quality is None:
                return []  # the failed operation is already counted
            by_arm[arm].append(out.quality)
        got = {
            "full_acc": float(np.mean([q[0] for q in by_arm["full"]])),
            "full_auroc": float(np.mean([q[1] for q in by_arm["full"]])),
            "euclidean_auroc": float(np.mean([q[1] for q in by_arm["euclidean"]])),
        }
        return [
            f"{k} {got[k]:.4f} outside {FROZEN[k]:.4f} +- {BAND}"
            for k in FROZEN
            if abs(got[k] - FROZEN[k]) > BAND
        ]


class EvalLarge(Workload):
    """One standard-recipe model evaluated 3 times on a 16k-sample split."""

    name = "eval_large"
    reference = "sweep"
    evals_per_pass = 3

    def __init__(self, seed: int, quick: bool, workdir: Path, span):
        self.seed = seed
        self.samples_per_class = 300 if quick else 4000
        self.epochs = 3 if quick else None
        self.setup_trainings: list[tuple[int, float]] = []  # (samples, seconds)

    def setup(self) -> None:
        s = self.seed
        cfg = B.benchmark_config("full", s)
        if self.epochs is not None:
            cfg = replace(cfg, epochs=self.epochs)
        train_split = B.benchmark_split(s)
        t0 = perf_counter()
        self.embedder, self.bank, _ = T.train(train_split, cfg)
        self.setup_trainings.append((cfg.epochs * len(train_split.train), perf_counter() - t0))
        large = D.gen_synthetic(
            B.NUM_CLASSES, self.samples_per_class, B.DIM, B.SEPARATION, B.OVERLAP, seed=s, hard=True
        )
        spec = D.SplitSpec(B.KNOWN_CLASSES, B.UNKNOWN_CLASSES)
        self.split = D.apply_split(large, spec, 0.5, s)
        self.loss = cfg.loss

    def pass_ops(self):
        return [("evaluate", self._op) for _ in range(self.evals_per_pass)]

    def _op(self) -> Outcome:
        t0 = perf_counter()
        report = E.evaluate(self.embedder, self.bank, self.split, self.loss)
        dt = perf_counter() - t0
        quality, digest, problems = _report_outcome(report)
        return Outcome(
            seconds=dt,
            eval_samples=len(self.split.test_known) + len(self.split.test_unknown),
            eval_s=dt,
            quality=quality,
            fingerprint=digest,
            problems=problems,
        )

CLI_CONFIG = """\
[model]
layer_dims = {dim},32,8
seed = {seed}

[loss]
variant = full
gap_threshold = 0.25

[train]
preset = desk
epochs = {epochs}
seed = {seed}

[data]
num_classes = {classes}
samples_per_class = {per_class}
dim = {dim}
separation = 5.0
overlap = 1.0
hard = true
seed = {seed}
known_classes = 0,1,2,3
unknown_classes = 4,5
test_fraction = 0.25
"""


def _read_csv_floats(path: Path) -> np.ndarray:
    """Parse a numeric CSV body with Python's correctly rounded ``float``."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines], dtype=np.float64)


@dataclass
class _Trip:
    """Files and expected values of one CLI round trip."""

    gen_cfg: Path
    run_cfg: Path
    data_dir: Path
    run_dir: Path
    expected: object  # the LabeledDataset gen-data must write
    n_train: int
    n_eval: int

    @property
    def csv_path(self) -> Path:
        return self.data_dir / "dataset.csv"


class CliRoundTrip(Workload):
    """``gen-data --csv``, ``train`` and ``eval`` through ``osrkit.cli.main``.

    The three round trips of a pass use seeds seed, seed+1 and seed+2, so
    the quality means average three datasets and models.
    """

    name = "cli_roundtrip"
    classes = 6
    dim = 16

    def __init__(self, seed: int, quick: bool, workdir: Path, span):
        self.seeds = [seed, seed + 1, seed + 2]
        self.per_class = 100 if quick else 1000
        self.epochs = 1 if quick else 3
        self.work = workdir
        self.span = span

    def setup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.trips = {s: self._setup_trip(s) for s in self.seeds}

    def _setup_trip(self, seed: int) -> _Trip:
        base = self.work / f"seed{seed}"
        base.mkdir(parents=True)
        expected = D.gen_synthetic(self.classes, self.per_class, self.dim, 5.0, 1.0, seed=seed, hard=True)
        split = D.apply_split(expected, D.SplitSpec([0, 1, 2, 3], [4, 5]), 0.25, seed)
        trip = _Trip(
            gen_cfg=base / "gen.ini",
            run_cfg=base / "run.ini",
            data_dir=base / "data",
            run_dir=base / "run",
            expected=expected,
            n_train=len(split.train),
            n_eval=len(split.test_known) + len(split.test_unknown),
        )
        text = CLI_CONFIG.format(
            seed=seed, epochs=self.epochs, classes=self.classes, per_class=self.per_class, dim=self.dim
        )
        trip.gen_cfg.write_text(text, encoding="utf-8")
        trip.run_cfg.write_text(text + f"features_path = {trip.csv_path}\n", encoding="utf-8")
        return trip

    def pass_ops(self):
        return [(s, lambda s=s: self._op(self.trips[s])) for s in self.seeds]

    def _main(self, sub: str, argv: list[str]) -> tuple[int, str, str, float]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            with self.span(f"cli.{sub}"):
                code = C.main([sub, *argv])
            dt = perf_counter() - t0
        return code, out.getvalue(), err.getvalue(), dt

    def _op(self, trip: _Trip) -> Outcome:
        shutil.rmtree(trip.data_dir, ignore_errors=True)
        shutil.rmtree(trip.run_dir, ignore_errors=True)
        ckpt = trip.run_dir / "model.osrp"
        steps = [
            ("gen-data", ["--config", str(trip.gen_cfg), "--out", str(trip.data_dir), "--csv"]),
            ("train", ["--config", str(trip.run_cfg), "--out", str(trip.run_dir)]),
            ("eval", ["--config", str(trip.run_cfg), "--checkpoint", str(ckpt), "--out", str(trip.run_dir)]),
        ]
        results = {}
        for sub, argv in steps:
            results[sub] = self._main(sub, argv)
            if results[sub][0] != 0:
                return Outcome(problems=[f"{sub} exited {results[sub][0]}: {results[sub][2].strip()}"])
        out = Outcome(
            seconds=sum(r[3] for r in results.values()),
            train_samples=self.epochs * trip.n_train,
            train_s=results["train"][3],
            eval_samples=trip.n_eval,
            eval_s=results["eval"][3],
        )
        report = json.loads((trip.run_dir / "report.json").read_text(encoding="utf-8"))
        acc, auroc, oscr = report["closed_accuracy"], report["auroc"], report["oscr"]
        out.quality = (acc, auroc, oscr)
        out.problems += _curve_problems(acc, auroc, oscr, _read_csv_floats(trip.run_dir / "roc.csv"))
        train_line = results["train"][1].strip().splitlines()[-1]
        eval_line = f"acc={acc:.4f} auroc={auroc:.4f} oscr={oscr:.4f}"
        if train_line != eval_line:
            out.problems.append(f"eval on reloaded checkpoint {eval_line!r} != train {train_line!r}")
        table = _read_csv_floats(trip.csv_path)
        exact = (
            np.array_equal(table[:, 0], trip.expected.labels)
            and np.array_equal(table[:, 1], trip.expected.group_ids)
            and table[:, 2:].tobytes() == trip.expected.inputs.tobytes()
        )
        if not exact:
            out.problems.append("feature CSV does not round-trip bit-exactly")
        digest = hashlib.sha256()
        for path in (trip.csv_path, ckpt, *(trip.run_dir / f for f in
                     ("history.csv", "report.json", "roc.csv", "oscr.csv"))):
            digest.update(path.read_bytes())
        out.fingerprint = digest.hexdigest()
        return out

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Standard, EvalLarge, CliRoundTrip)}

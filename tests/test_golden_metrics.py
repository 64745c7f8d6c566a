"""The reported numbers, pinned exactly: the README table (closed accuracy, AUROC and OSCR of
the ``full``, ``uncalibrated`` and ``euclidean`` arms at seeds 0-4 of the benchmark recipe),
the ``weights`` grid's ``sweep.csv`` on CI's artifact recipe, and one ``optimizer = sgd`` run.

``golden_metrics.json`` holds each number as a ``float.hex`` string and each ``sweep.csv`` line
as text, so the comparison is exact. These values were the same under OpenBLAS's Haswell and
Prescott kernels and with numpy's dispatched SIMD loops off. A change that moves one of them
rewrites the file with

    PYTHONPATH=src python tests/test_golden_metrics.py --write

and says which values moved, and why.
"""

import json
import sys
import tempfile
from pathlib import Path

from osrkit.benchmark import benchmark_config, benchmark_split
from osrkit.config import GRIDS, build_split, load_config, with_keys
from osrkit.evaluate import evaluate
from osrkit.train import sweep, train, write_sweep_csv

GOLDEN = Path(__file__).with_name("golden_metrics.json")
# the config of the "Artifacts are byte-identical across processes" step of the CI workflow
CI_RECIPE = "[model]\nlayer_dims = 8,16,8\n[train]\nepochs = 5\n[data]\nsamples_per_class = 40\n"


def run_metrics(name, split, config) -> dict[str, str]:
    embedder, bank, _ = train(split, config)
    report = evaluate(embedder, bank, split, config.loss)
    return {f"{name}/{metric}": getattr(report, metric).hex()
            for metric in ("closed_accuracy", "auroc", "oscr")}


def sweep_lines(name, recipe: str, cells) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        ini, csv = Path(tmp, "recipe.ini"), Path(tmp, "sweep.csv")
        ini.write_text(recipe, encoding="utf-8")
        config = load_config(ini)
        write_sweep_csv(csv, sweep(config.train, cells, build_split(config.data)))
        lines = csv.read_text(encoding="utf-8").splitlines()
    return {f"{name}/line {i}": line for i, line in enumerate(lines, start=1)}


def compute() -> dict[str, str]:
    values = {}
    for arm in ("full", "uncalibrated", "euclidean"):
        for seed in range(5):
            values |= run_metrics(f"readme/{arm}/seed {seed}", benchmark_split(seed),
                                  benchmark_config(arm, seed))
    sgd = with_keys(benchmark_config("full", 0), {"optimizer": "sgd"})
    values |= run_metrics("sgd/full/seed 0", benchmark_split(0), sgd)
    values |= sweep_lines("sweep weights/ci recipe", CI_RECIPE, GRIDS["weights"])
    return values


def mismatches(golden: dict[str, str], now: dict[str, str]) -> list[str]:
    """One line per entry that differs, with both values (a hex float also in decimal)."""
    def shown(value):
        if value is None:
            return "absent"
        try:
            return f"{value} ({float.fromhex(value)!r})"
        except ValueError:
            return repr(value)
    return [f"{key}: golden {shown(golden.get(key))}, now {shown(now.get(key))}"
            for key in [*golden, *(k for k in now if k not in golden)]
            if golden.get(key) != now.get(key)]


def test_reported_numbers_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == 15 * 3 + 3 + 8  # 15 table runs, the sgd run, sweep header + 7 cells
    assert mismatches(golden, compute()) == []


def test_a_mismatch_names_the_entry_and_both_values():
    golden = {"a/auroc": (0.5).hex(), "b/line 1": "x,1", "c/oscr": (1.0).hex()}
    now = {"a/auroc": (0.25).hex(), "b/line 1": "x,1", "d/oscr": (1.0).hex()}
    assert mismatches(golden, now) == [
        "a/auroc: golden 0x1.0000000000000p-1 (0.5), now 0x1.0000000000000p-2 (0.25)",
        "c/oscr: golden 0x1.0000000000000p+0 (1.0), now absent",
        "d/oscr: golden absent, now 0x1.0000000000000p+0 (1.0)",
    ]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    GOLDEN.write_text(json.dumps(compute(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")

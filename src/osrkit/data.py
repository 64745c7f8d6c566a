"""Datasets: synthetic Gaussian benchmarks, open-set splits, file IO.

Synthetic classes are isotropic Gaussians whose means are random unit
directions scaled to a common length, so class similarity is controlled
by the angles between mean directions. The "hard" mode deliberately
plants two low-index classes within a small angle of one conventionally
unknown class to make known/unknown confusion realistic. A
``LabeledDataset`` checks itself: a finite, non-empty B x D matrix of inputs
(``numerics.as_array``) and one non-negative label and group id per row
(``numerics.integer_valued``: 0.7 is no label); a message names the first
bad row, counted from 0.

Feature files round-trip bit-exactly in two formats selected by
extension: ``.csv`` (header ``label,group,f0..f{D-1}``) and the OSSF
binary layout (magic ``OSSF``, u16 version, u32 counts, int64 labels and
groups, float64 features, all little-endian). A reader checks only its
format and returns arrays; ``load_features`` builds the dataset from them
and names the path in any ``DataError``. A CSV body is parsed in blocks of
1,024 lines, so the memory the parse needs beyond the text is bounded by a
block; the lines of a block that fails a check are checked again one at a
time, so the first text defect in file order is reported, naming its line.
A field must be plain ASCII: the underscores, spaces, tabs and non-ASCII
digits that Python's ``int`` and ``float`` accept are errors.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .model import _check_classes
from .numerics import as_array, integer_valued

FEATURES_MAGIC = b"OSSF"
FEATURES_VERSION = 1
_HEADER = struct.Struct("<4sHII")  # magic, version, rows B, feature dim D
_CSV_BLOCK_LINES = 1024  # a feature CSV is parsed this many lines at a time

# Non-hard class means are kept at least this far apart (degrees); the
# hard trio uses HARD_ANGLE_DEG instead.
MIN_MEAN_ANGLE_DEG = 60.0
HARD_ANGLE_DEG = 14.0


@dataclass
class LabeledDataset:
    inputs: np.ndarray     # B x D_in
    labels: np.ndarray     # B, original class ids
    group_ids: np.ndarray  # B, written to both feature-file formats

    def __post_init__(self):
        self.inputs = as_array(self.inputs, "inputs")
        self.labels = integer_valued(self.labels, "labels")
        self.group_ids = integer_valued(self.group_ids, "group_ids")
        if self.inputs.ndim != 2 or self.inputs.size == 0:
            raise DataError(f"inputs must be a non-empty 2-D matrix, got {self.inputs.shape}")
        n = self.inputs.shape[0]
        if self.labels.shape != (n,) or self.group_ids.shape != (n,):
            raise DataError("labels and group_ids must match the number of rows")
        if not np.isfinite(self.inputs).all():
            bad = int(np.argmin(np.isfinite(self.inputs).all(axis=1)))
            raise DataError(f"row {bad} contains non-finite values")
        negative = (self.labels < 0) | (self.group_ids < 0)
        if negative.any():
            raise DataError(f"row {int(np.argmax(negative))} has a negative label or group")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def subset(self, mask: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.inputs[mask], self.labels[mask], self.group_ids[mask])


@dataclass
class SplitSpec:
    known_classes: list[int]
    unknown_classes: list[int]

    def validate(self, present: set[int]) -> None:
        known = [int(c) for c in self.known_classes]
        unknown = [int(c) for c in self.unknown_classes]
        _check_classes(len(known))
        if not unknown:
            raise ConfigError("unknown class list must not be empty")
        if set(known) & set(unknown):
            raise ConfigError("known and unknown classes overlap")
        if len(set(known)) != len(known) or len(set(unknown)) != len(unknown):
            raise ConfigError("duplicate class ids in split spec")
        missing = (set(known) | set(unknown)) - present
        if missing:
            raise DataError(f"split references absent class ids {sorted(missing)}")


@dataclass
class OpenSetSplit:
    train: LabeledDataset         # known classes only, labels remapped to [0, K)
    test_known: LabeledDataset    # remapped labels
    test_unknown: LabeledDataset  # original labels retained
    label_map: dict[int, int]     # original id -> remapped id

    @property
    def num_known(self) -> int:
        return len(self.label_map)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        n = np.linalg.norm(v)
        if n > 1e-8:
            return v / n


def _orthogonal_unit(rng: np.random.Generator, base: np.ndarray) -> np.ndarray:
    while True:
        w = _random_unit(rng, base.size)
        w = w - (w @ base) * base
        n = np.linalg.norm(w)
        if n > 1e-6:
            return w / n


def _class_directions(
    num_classes: int, dim: int, hard: bool, rng: np.random.Generator
) -> np.ndarray:
    """Unit mean directions, pairwise separated except for the hard trio."""
    dirs: list[np.ndarray | None] = [None] * num_classes
    if hard:
        if num_classes < 4:
            raise ConfigError("hard mode needs at least 4 classes")
        near_unknown = num_classes - 2
        base = _random_unit(rng, dim)
        offset = _orthogonal_unit(rng, base)
        delta = np.radians(HARD_ANGLE_DEG)
        dirs[near_unknown] = base
        dirs[0] = _unit(np.cos(delta) * base + np.sin(delta) * offset)
        dirs[1] = _unit(np.cos(delta) * base - np.sin(delta) * offset)

    min_cos = np.cos(np.radians(MIN_MEAN_ANGLE_DEG))
    for c in range(num_classes):
        if dirs[c] is not None:
            continue
        tries = 0
        threshold = min_cos
        while True:
            cand = _random_unit(rng, dim)
            placed = [d for d in dirs if d is not None]
            if all((cand @ d) <= threshold for d in placed):
                dirs[c] = cand
                break
            tries += 1
            if tries % 200 == 0:
                # packing too tight for this dim; relax gradually, stay deterministic
                threshold = min(1.0 - 1e-9, threshold + (1.0 - threshold) * 0.5)
    return np.vstack(dirs)


def _seeded_rng(seed: int) -> np.random.Generator:
    seed = int(seed)
    if seed < 0:
        raise ConfigError(f"data seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def gen_synthetic(
    num_classes: int,
    samples_per_class: int,
    dim: int,
    separation: float,
    overlap: float,
    seed: int,
    hard: bool = False,
    num_groups: int = 5,
) -> LabeledDataset:
    """Isotropic Gaussian classes with seeded random unit-direction means.

    Class c is N(mean_c, overlap^2 I) with |mean_c| = separation. In hard
    mode classes 0 and 1 sit within HARD_ANGLE_DEG of class
    num_classes - 2, so a conventional split that marks trailing classes
    unknown gets a genuinely confusable outlier. Group ids are assigned
    round-robin within each class. Deterministic per seed.
    """
    if num_classes < 3:
        raise ConfigError(f"need at least 3 classes, got {num_classes}")
    if samples_per_class < 1:
        raise ConfigError("samples_per_class must be >= 1")
    if dim < 2:
        raise ConfigError("dim must be >= 2")
    if not (np.isfinite(separation) and separation > 0):
        raise ConfigError(f"separation must be > 0, got {separation}")
    if not (np.isfinite(overlap) and overlap >= 0):
        raise ConfigError(f"overlap must be >= 0, got {overlap}")
    if num_groups < 1:
        raise ConfigError("num_groups must be >= 1")
    rng = _seeded_rng(seed)
    means = separation * _class_directions(num_classes, dim, hard, rng)
    noise = rng.standard_normal((num_classes, samples_per_class, dim))  # the same stream as C draws
    with np.errstate(over="ignore"):  # reported below, as a NumericError
        inputs = (means[:, None, :] + overlap * noise).reshape(-1, dim)
    if not np.isfinite(inputs).all():
        raise NumericError(f"overlap {overlap:g}, separation {separation:g}: features overflow")
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    groups = np.tile(np.arange(samples_per_class) % num_groups, num_classes)
    return LabeledDataset(inputs, labels, groups)


def apply_split(
    dataset: LabeledDataset, spec: SplitSpec, test_fraction: float, seed: int
) -> OpenSetSplit:
    """Stratified known-class train/test split; all unknown samples go to test.

    Known labels are remapped to [0, K) in the order given by
    ``spec.known_classes``; the bijection is recorded on the split.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    present = set(int(c) for c in np.unique(dataset.labels))
    spec.validate(present)
    rng = _seeded_rng(seed)
    label_map = {int(c): i for i, c in enumerate(spec.known_classes)}

    train_idx: list[np.ndarray] = []  # part i holds known class i's rows: label i
    test_idx: list[np.ndarray] = []
    for c in spec.known_classes:
        idx = np.flatnonzero(dataset.labels == c)
        if idx.size < 2:
            raise DataError(f"known class {c} has {idx.size} sample(s), need >= 2")
        perm = rng.permutation(idx)
        n_test = min(idx.size - 1, max(1, int(round(idx.size * test_fraction))))
        test_idx.append(perm[:n_test])
        train_idx.append(perm[n_test:])

    def remapped(parts: list[np.ndarray]) -> LabeledDataset:
        ds = dataset.subset(np.concatenate(parts))
        ds.labels = np.repeat(np.arange(len(parts), dtype=np.int64), [p.size for p in parts])
        return ds

    test_unknown = dataset.subset(np.isin(dataset.labels, list(spec.unknown_classes)))
    return OpenSetSplit(remapped(train_idx), remapped(test_idx), test_unknown, label_map)


def save_features(path, dataset: LabeledDataset) -> None:
    """Write a feature file; format chosen by extension (.csv or binary)."""
    if str(path).lower().endswith(".csv"):
        _save_csv(path, dataset)
    else:
        _save_binary(path, dataset)


def load_features(path) -> LabeledDataset:
    """Read a feature file written by save_features; bit-exact round-trip. A ``DataError``, of
    the file's format or of the dataset it holds, names the path."""
    read = _load_csv if str(path).lower().endswith(".csv") else _load_binary
    try:
        return LabeledDataset(*read(path))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _save_csv(path, ds: LabeledDataset) -> None:
    # One joined line per row stays: the time goes to ``repr`` of each float, and a writer that
    # formats a block of rows with one ``%r`` template measured no faster (6,000 x 16 rows).
    d = ds.inputs.shape[1]
    lines = ["label,group," + ",".join(f"f{i}" for i in range(d))]
    for label, group, row in zip(ds.labels.tolist(), ds.group_ids.tolist(), ds.inputs.tolist()):
        lines.append(f"{label},{group}," + ",".join(map(repr, row)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse the body a block at a time; in a block that fails, check its non-blank lines
    again one at a time and raise the first one's reason, naming its line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"not UTF-8 text: {exc}") from None
    if not lines:
        raise DataError("empty file")
    header = lines[0].split(",")
    if len(header) < 3 or header[0] != "label" or header[1] != "group":
        raise DataError(f"malformed header {lines[0]!r}")
    d = len(header) - 2
    if [h for h in header[2:]] != [f"f{i}" for i in range(d)]:
        raise DataError("malformed feature columns in header")
    labels, groups, blocks = [], [], [np.empty((0, d))]  # a body with no rows is a (0, D) matrix
    for start in range(1, len(lines), _CSV_BLOCK_LINES):
        chunk = lines[start:start + _CSV_BLOCK_LINES]
        block = list(filter(None, chunk))  # blank lines are skipped
        if block:
            parsed = _parse_block(block, d)
            if isinstance(parsed, str):  # every check is of one line, so name the first to fail
                for ln, line in enumerate(chunk, start=start + 1):
                    if line and isinstance(reason := _parse_block([line], d), str):
                        raise DataError(f"line {ln} {reason}")
            block_labels, block_groups, feats = parsed
            labels += block_labels
            groups += block_groups
            blocks.append(feats)
    return np.vstack(blocks), np.array(labels), np.array(groups)


def _parse_block(block: list[str], d: int):
    """Labels, groups and the B x D features of non-blank CSV lines, one call per check over
    the whole block; or, if a line fails a check, the reason as text. Each check is a property
    of one line, so a block fails just when one of its lines fails alone, and a one-line
    block's reason is that of the first check its line fails."""
    width = d + 2
    commas = set(map(str.count, block, itertools.repeat(",")))
    if commas != {d + 1}:
        return f"has {max(commas - {d + 1}) + 1} fields, expected {width}"
    text = ",".join(block)
    fields = text.split(",")
    if not _plain(text):
        field = next(f for f in fields if not _plain(f))
        return f"unparsable: field {field!r} holds '_', a space, a tab or non-ASCII text"
    try:
        ints = list(map(int, fields[0::width] + fields[1::width]))
        del fields[0::width], fields[0::width - 1]  # the labels, then the groups
        feats = np.array(list(map(float, fields)))
    except ValueError as exc:
        return f"unparsable: {exc}"
    if not (-2**63 <= min(ints) and max(ints) < 2**63):
        return "label or group outside int64's range"
    return ints[:len(block)], ints[len(block):], feats.reshape(len(block), d)


def _plain(text: str) -> bool:
    """Whether ``text`` holds nothing that ``int`` and ``float`` accept but ``_save_csv`` never
    writes: an underscore, a space, a tab or a non-ASCII character. Other whitespace ends a line."""
    return text.isascii() and "_" not in text and " " not in text and "\t" not in text


def _save_binary(path, ds: LabeledDataset) -> None:
    b, d = ds.inputs.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(FEATURES_MAGIC, FEATURES_VERSION, b, d))
        fh.write(np.ascontiguousarray(ds.labels, dtype="<i8").tobytes())
        fh.write(np.ascontiguousarray(ds.group_ids, dtype="<i8").tobytes())
        fh.write(np.ascontiguousarray(ds.inputs, dtype="<f8").tobytes())


def _load_binary(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size or blob[:4] != FEATURES_MAGIC:
        raise DataError("not an OSSF feature file")
    _, version, b, d = _HEADER.unpack_from(blob)
    if version != FEATURES_VERSION:
        raise DataError(f"unsupported OSSF version {version}")
    need = _HEADER.size + 8 * b * (2 + d)
    if len(blob) != need:
        raise DataError(f"expected {need} bytes, found {len(blob)}")
    ints = np.frombuffer(blob, "<i8", 2 * b, _HEADER.size).astype(np.int64).reshape(2, b)
    feats = np.frombuffer(blob, "<f8", b * d, _HEADER.size + 16 * b).astype(np.float64)
    return feats.reshape(b, d), ints[0], ints[1]

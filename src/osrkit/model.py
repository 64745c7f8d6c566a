"""Embedding MLP with hand-written backprop, plus the reciprocal-point bank.

The embedder is a plain fully connected network, ReLU on hidden layers and
identity on the output. The bank holds one learnable reciprocal point per
known class together with a learnable non-negative margin per class.
Checkpoints round-trip bit-exactly through a small binary format.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .numerics import as_array, as_matrix

CHECKPOINT_MAGIC = b"OSRP"
CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    layer_dims: list[int]
    seed: int = 0
    init_scale: float = 1.0

    def validate(self) -> None:
        if len(self.layer_dims) < 2:
            raise ConfigError("layer_dims needs at least [input_dim, output_dim]")
        if any(int(d) < 1 for d in self.layer_dims):
            raise ConfigError(f"layer_dims must be positive, got {self.layer_dims}")
        if not (np.isfinite(self.init_scale) and self.init_scale > 0):
            raise ConfigError(f"init_scale must be > 0, got {self.init_scale}")
        if int(self.seed) < 0:
            raise ConfigError(f"model seed must be non-negative, got {self.seed}")


@dataclass
class Embedder:
    """MLP parameters. weights[i] has shape (dims[i], dims[i+1]); ``layer_dims`` reads them."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[0], *(w.shape[1] for w in self.weights)]


@dataclass
class ReciprocalBank:
    """One reciprocal point per known class plus per-class margins (>= 0)."""

    points: np.ndarray   # K x D
    margins: np.ndarray  # K

    @property
    def num_classes(self) -> int:
        return len(self.points)

    def checked(self, width: int) -> ReciprocalBank:
        """The bank as float64 arrays, points K x D and margins K, once checked: at least 2 finite
        points of the features' positive ``width``, and one finite margin per point. The rule
        every scoring entry runs, and the bank it scores."""
        p = as_matrix(self.points, "points")
        if width != p.shape[1]:
            raise ConfigError(f"feature dim {width} != point dim {p.shape[1]}")
        if width < 1:
            raise ConfigError("feature dimension must be >= 1")
        _check_classes(len(p))
        if np.shape(self.margins) != (len(p),):
            raise ConfigError(f"margins have shape {np.shape(self.margins)}, not ({len(p)},)")
        # a non-finite margin raises NumericError, as for the points
        return ReciprocalBank(p, as_matrix([self.margins], "margins")[0])

    def project_margins(self) -> None:
        """Clamp margins back to >= 0 in place (run after optimizer steps)."""
        np.maximum(self.margins, 0.0, out=self.margins)


def _check_classes(k: int) -> None:
    """The bank's size rule, run by ``ReciprocalBank.checked``, by ``init_model`` first and by
    ``data.SplitSpec.validate``, whose known classes fix the size."""
    if k < 2:
        raise ConfigError(f"need at least 2 classes, got {k}")


def init_model(config: ModelConfig, num_classes: int) -> tuple[Embedder, ReciprocalBank]:
    """Seeded init: weights and points uniform in +-init_scale/sqrt(fan_in).

    Biases start at zero, margins at zero. The same (config, num_classes)
    always yields bit-identical parameters.
    """
    config.validate()
    _check_classes(num_classes)
    dims = [int(d) for d in config.layer_dims]
    rng = np.random.default_rng(int(config.seed))
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        bound = config.init_scale / np.sqrt(d_in)
        weights.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    d = dims[-1]
    bound = config.init_scale / np.sqrt(d)
    points = rng.uniform(-bound, bound, size=(num_classes, d))
    margins = np.zeros(num_classes)
    return Embedder(weights, biases), ReciprocalBank(points, margins)


def flatten(*arrays: np.ndarray) -> np.ndarray:
    """One vector holding ``arrays`` raveled, in the order given."""
    return np.concatenate([np.ravel(a) for a in arrays])


def unflatten(vec: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Views of ``vec`` shaped like the arrays in ``like``: the inverse of ``flatten``."""
    parts = np.split(vec, np.cumsum([a.size for a in like])[:-1])
    return [part.reshape(a.shape) for part, a in zip(parts, like)]


def bind_parameters(embedder: Embedder, bank: ReciprocalBank) -> np.ndarray:
    """Move the trainable arrays into one vector, in the order weights, biases,
    points, margins, and rebind them as its views. Gradients use the same order."""
    arrays = [*embedder.weights, *embedder.biases, bank.points, bank.margins]
    vec = flatten(*arrays)
    views = unflatten(vec, arrays)
    n = len(embedder.weights)
    embedder.weights, embedder.biases = views[:n], views[n : 2 * n]
    bank.points, bank.margins = views[2 * n :]
    return vec


def _checked_inputs(inputs, width: int) -> np.ndarray:
    """``inputs`` as a 2-D float64 array as wide as the model's first layer, ``width``: the
    checks that ``train`` and ``evaluate._logits`` run once per call, before ``_forward``."""
    x = as_array(inputs, "inputs")
    if x.ndim != 2:
        raise ConfigError(f"inputs must be 2-D, got shape {x.shape}")
    if x.shape[1] != width:
        raise ConfigError(f"input dim {x.shape[1]} != model input dim {width}")
    return x


def _forward(weights: list, biases: list, x: np.ndarray) -> list[np.ndarray]:
    """The MLP on checked inputs, as ``train._Run.step`` and ``evaluate._logits`` run it:
    each layer's input, then the output. A bias may be tiled to ``x``'s rows: adding it gives
    the same bits as broadcasting it, in one inner loop instead of one per row."""
    last = len(weights) - 1
    activations = [x]
    a = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        a = a @ w
        a += b
        if i != last:
            np.maximum(a, 0.0, out=a)
        activations.append(a)
    return activations


def _backward_into(weights: list, activations: list, g: np.ndarray, grad_w: list,
                   grad_b: list) -> None:
    """The exact parameter gradients of ``_forward``'s ``activations`` under the output's
    upstream gradient ``g``, written into ``grad_w`` and ``grad_b``, as ``train._Run.step``
    runs it."""
    last = len(weights) - 1
    delta = g
    for i in range(last, -1, -1):
        if i != last:
            delta = (delta @ weights[i + 1].T) * (activations[i + 1] > 0.0)
        np.matmul(activations[i].T, delta, out=grad_w[i])
        np.add.reduce(delta, axis=0, out=grad_b[i])


def _pack_array(a: np.ndarray) -> bytes:
    flat = np.ascontiguousarray(a, dtype="<f8")
    return struct.pack("<I", flat.size) + flat.tobytes()


class _Reader:
    def __init__(self, blob: bytes, path: str):
        self.blob, self.off, self.path = blob, 0, path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise DataError(f"{self.path}: truncated checkpoint")
        out = self.blob[self.off : self.off + n]
        self.off += n
        return out

    def number(self, fmt: str) -> int:
        """The next unsigned integer of struct format ``fmt`` (``<H`` or ``<I``)."""
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def block(self, name: str, *shape: int) -> np.ndarray:
        """A length-prefixed float64 block: finite, then of ``shape``'s size, then shaped."""
        n = self.number("<I")
        a = np.frombuffer(self.take(8 * n), dtype="<f8").astype(np.float64)
        if not np.isfinite(a).all():
            raise DataError(f"{self.path}: checkpoint holds non-finite parameters")
        if a.size != math.prod(shape):
            raise DataError(f"{self.path}: {name} block size mismatch")
        return a.reshape(shape)


def save_checkpoint(path, embedder: Embedder, bank: ReciprocalBank) -> None:
    """Write the OSRP binary checkpoint (little-endian, u32 length prefixes)."""
    dims = embedder.layer_dims
    header = struct.pack(f"<HI{len(dims)}I", CHECKPOINT_VERSION, len(dims), *dims)
    parts = [CHECKPOINT_MAGIC, header]
    for w, b in zip(embedder.weights, embedder.biases):
        parts += [_pack_array(w), _pack_array(b)]
    parts += [struct.pack("<I", bank.num_classes), _pack_array(bank.points),
              _pack_array(bank.margins)]
    _parse_checkpoint(blob := b"".join(parts), path)  # load's checks, before the file opens
    with open(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path) -> tuple[Embedder, ReciprocalBank]:
    """Read an OSRP checkpoint; round-trips with save_checkpoint bit-exactly."""
    with open(path, "rb") as fh:
        return _parse_checkpoint(fh.read(), path)


def _parse_checkpoint(blob: bytes, path) -> tuple[Embedder, ReciprocalBank]:
    r = _Reader(blob, str(path))
    if r.take(4) != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: bad magic, not an OSRP checkpoint")
    version = r.number("<H")
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    dims = [r.number("<I") for _ in range(r.number("<I"))]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise DataError(f"{path}: invalid layer dims {dims}")
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(r.block("weight", d_in, d_out))
        biases.append(r.block("bias", d_out))
    k = r.number("<I")
    if k < 2:
        raise DataError(f"{path}: checkpoint has {k} reciprocal point(s), need >= 2")
    points, margins = r.block("point", k, dims[-1]), r.block("margin", k)
    if r.off != len(blob):
        raise DataError(f"{path}: trailing bytes after checkpoint payload")
    return Embedder(weights, biases), ReciprocalBank(points, margins)

"""Embedding MLP with hand-written backprop, plus the reciprocal-point bank.

The embedder is a plain fully connected network, ReLU on hidden layers and
identity on the output. The bank holds one learnable reciprocal point per
known class together with a learnable non-negative margin per class.
Checkpoints round-trip bit-exactly through a small binary format.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, UsageError

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
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class Embedder:
    """MLP parameters. weights[i] has shape (dims[i], dims[i+1])."""

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]


@dataclass
class ReciprocalBank:
    """One reciprocal point per known class plus per-class margins (>= 0)."""

    points: np.ndarray   # K x D
    margins: np.ndarray  # K

    @property
    def num_classes(self) -> int:
        return self.points.shape[0]

    def project_margins(self) -> None:
        """Clamp margins back to >= 0 in place (run after optimizer steps)."""
        np.maximum(self.margins, 0.0, out=self.margins)


@dataclass
class ForwardCache:
    """Activation record from one forward pass; consumed by embed_backward."""

    weights: list[np.ndarray] = field(repr=False)
    activations: list[np.ndarray] = field(repr=False)   # inputs of each layer
    preactivations: list[np.ndarray] = field(repr=False)


@dataclass
class EmbedderGrads:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def init_model(config: ModelConfig, num_classes: int) -> tuple[Embedder, ReciprocalBank]:
    """Seeded init: weights and points uniform in +-init_scale/sqrt(fan_in).

    Biases start at zero, margins at zero. The same (config, num_classes)
    always yields bit-identical parameters.
    """
    config.validate()
    if num_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {num_classes}")
    dims = [int(d) for d in config.layer_dims]
    rng = np.random.default_rng(int(config.seed))
    weights = []
    biases = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        bound = config.init_scale / np.sqrt(d_in)
        weights.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    d = dims[-1]
    bound = config.init_scale / np.sqrt(d)
    points = rng.uniform(-bound, bound, size=(num_classes, d))
    margins = np.zeros(num_classes)
    return Embedder(dims, weights, biases), ReciprocalBank(points, margins)


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


def embed_forward(embedder: Embedder, inputs) -> tuple[np.ndarray, ForwardCache]:
    """Run the MLP. Returns (features, cache); the cache enables exact backprop."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2:
        raise ConfigError(f"inputs must be 2-D, got shape {x.shape}")
    if x.shape[1] != embedder.in_dim:
        raise ConfigError(
            f"input dim {x.shape[1]} != embedder input dim {embedder.in_dim}"
        )
    last = len(embedder.weights) - 1
    activations = [x]
    preactivations = []
    a = x
    for i, (w, b) in enumerate(zip(embedder.weights, embedder.biases)):
        z = a @ w + b
        preactivations.append(z)
        a = z if i == last else np.maximum(z, 0.0)
        activations.append(a)
    cache = ForwardCache(list(embedder.weights), activations, preactivations)
    return a, cache


def embed_backward(cache: ForwardCache, grad_features) -> tuple[EmbedderGrads, np.ndarray]:
    """Exact gradients of the forward map w.r.t. parameters and inputs."""
    g = np.asarray(grad_features, dtype=np.float64)
    if not cache.activations or g.shape != cache.activations[-1].shape:
        raise UsageError(
            "grad_features shape does not match the cached forward output; "
            "was this cache produced by a matching embed_forward call?"
        )
    grads = EmbedderGrads([np.empty(w.shape) for w in cache.weights],
                          [np.empty(w.shape[1]) for w in cache.weights])
    return grads, _backward_into(cache, g, grads.weights, grads.biases)


def _backward_into(cache: ForwardCache, g: np.ndarray, grad_w: list, grad_b: list) -> np.ndarray:
    """``embed_backward`` writing into ``grad_w`` and ``grad_b``; returns the input gradient."""
    last = len(cache.weights) - 1
    delta = g
    for i in range(last, -1, -1):
        if i != last:
            delta = delta * (cache.preactivations[i] > 0.0)
        np.matmul(cache.activations[i].T, delta, out=grad_w[i])
        delta.sum(axis=0, out=grad_b[i])
        delta = delta @ cache.weights[i].T
    return delta


def _pack_array(a: np.ndarray) -> bytes:
    flat = np.ascontiguousarray(a, dtype="<f8")
    return struct.pack("<I", flat.size) + flat.tobytes()


class _Reader:
    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise DataError(f"{self.path}: truncated checkpoint")
        out = self.blob[self.off : self.off + n]
        self.off += n
        return out

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64_array(self) -> np.ndarray:
        n = self.u32()
        a = np.frombuffer(self.take(8 * n), dtype="<f8").astype(np.float64)
        if not np.isfinite(a).all():
            raise DataError(f"{self.path}: checkpoint holds non-finite parameters")
        return a


def save_checkpoint(path, embedder: Embedder, bank: ReciprocalBank) -> None:
    """Write the OSRP binary checkpoint (little-endian, u32 length prefixes)."""
    parts = [CHECKPOINT_MAGIC, struct.pack("<H", CHECKPOINT_VERSION)]
    dims = embedder.layer_dims
    parts.append(struct.pack("<I", len(dims)))
    parts.extend(struct.pack("<I", int(d)) for d in dims)
    for w, b in zip(embedder.weights, embedder.biases):
        parts.append(_pack_array(w))
        parts.append(_pack_array(b))
    parts.append(struct.pack("<I", bank.num_classes))
    parts.append(_pack_array(bank.points))
    parts.append(_pack_array(bank.margins))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_checkpoint(path) -> tuple[Embedder, ReciprocalBank]:
    """Read an OSRP checkpoint; round-trips with save_checkpoint bit-exactly."""
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob, str(path))
    if r.take(4) != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: bad magic, not an OSRP checkpoint")
    version = r.u16()
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    n_dims = r.u32()
    dims = [r.u32() for _ in range(n_dims)]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise DataError(f"{path}: invalid layer dims {dims}")
    weights = []
    biases = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        w = r.f64_array()
        if w.size != d_in * d_out:
            raise DataError(f"{path}: weight block size mismatch")
        weights.append(w.reshape(d_in, d_out))
        b = r.f64_array()
        if b.size != d_out:
            raise DataError(f"{path}: bias block size mismatch")
        biases.append(b)
    k = r.u32()
    if k < 2:
        raise DataError(f"{path}: checkpoint has {k} reciprocal point(s), need >= 2")
    points = r.f64_array()
    if points.size != k * dims[-1]:
        raise DataError(f"{path}: point block size mismatch")
    margins = r.f64_array()
    if margins.size != k:
        raise DataError(f"{path}: margin block size mismatch")
    if r.off != len(blob):
        raise DataError(f"{path}: trailing bytes after checkpoint payload")
    return Embedder(dims, weights, biases), ReciprocalBank(points.reshape(k, dims[-1]), margins)

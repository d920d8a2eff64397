"""Synthetic classification domains with controllable shift.

A domain is a Gaussian mixture (one component per class) pushed through
a rigid motion plus scaling: ``x = scale * R(rotation) @ (mean_y +
cov_scale * z) + translation`` with ``z`` standard normal and the
rotation acting on the first two coordinates.  Families of shifted
domains give a continuous knob for how far each source sits from the
target.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataFormatError, NonFiniteError, from_json, to_json
from .rng import Xoshiro256


@dataclass(frozen=True)
class DomainSpec:
    name: str
    n_classes: int
    d: int
    base_means: tuple[tuple[float, ...], ...] = field(metadata={"json": "means"})
    cov_scale: float
    rotation: float = 0.0
    translation: tuple[float, ...] = ()
    scale: float = 1.0
    label_noise: float = 0.0

    def __post_init__(self):
        means = tuple(tuple(float(v) for v in m) for m in self.base_means)
        object.__setattr__(self, "base_means", means)
        trans = tuple(float(v) for v in self.translation) or (0.0,) * self.d
        object.__setattr__(self, "translation", trans)
        if self.n_classes < 1:
            raise ConfigError("n_classes must be positive")
        if self.d < 1:
            raise ConfigError("d must be positive")
        if len(means) != self.n_classes:
            raise ConfigError(f"need {self.n_classes} means, got {len(means)}")
        if any(len(m) != self.d for m in means):
            raise ConfigError("every mean must have dimension d")
        if len(set(means)) != len(means):
            raise ConfigError("class means must be pairwise distinct")
        if len(trans) != self.d:
            raise ConfigError("translation must have dimension d")
        if self.cov_scale <= 0.0:
            raise ConfigError("cov_scale must be positive")
        if self.scale <= 0.0:
            raise ConfigError("scale must be positive")
        if not 0.0 <= self.label_noise < 0.5:
            raise ConfigError("label_noise must lie in [0, 0.5)")
        if self.d < 2 and self.rotation != 0.0:
            raise ConfigError("rotation needs at least two dimensions")


@dataclass
class Dataset:
    """Labelled rows; ``x`` is a private float64 copy of the input."""

    x: np.ndarray
    y: np.ndarray
    domain_name: str

    def __post_init__(self):
        self.x = np.array(self.x, dtype=np.float64)
        if not np.isfinite(self.x).all():
            raise NonFiniteError(f"dataset {self.domain_name}: x holds a non-finite value")
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2:
            raise ConfigError(f"dataset x must be [n x d], got {self.x.shape}")
        if self.x.shape[0] != self.y.shape[0]:
            raise ConfigError("x row count must equal label count")
        if self.x.shape[0] < 1:
            raise ConfigError("dataset has zero rows")
        if self.y.size and self.y.min() < 0:
            raise ConfigError("labels must be non-negative")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def rotation_matrix(angle: float, d: int) -> np.ndarray:
    """Identity except a rotation by `angle` in the first two coordinates."""
    r = np.eye(d)
    if d >= 2:
        c, s = np.cos(angle), np.sin(angle)
        r[0, 0], r[0, 1] = c, -s
        r[1, 0], r[1, 1] = s, c
    return r


def sample_domain(spec: DomainSpec, n: int, rng: Xoshiro256) -> Dataset:
    """Draw n labelled points.  Labels are uniform over classes; with
    probability label_noise a label is flipped to a uniformly random
    other class (the point itself is not moved)."""
    if n < 1:
        raise ConfigError("sample count must be positive")
    y = rng.integers(n, below=spec.n_classes)
    z = rng.normals(n * spec.d).reshape(n, spec.d)
    means = np.asarray(spec.base_means)
    r = rotation_matrix(spec.rotation, spec.d)
    x = spec.scale * (means[y] + spec.cov_scale * z) @ r.T + np.asarray(spec.translation)
    if spec.label_noise > 0.0 and spec.n_classes > 1:
        flips = rng.uniforms(n)
        shifts = rng.integers(n, below=spec.n_classes - 1)
        flip = flips < spec.label_noise
        y = np.where(flip, (y + 1 + shifts) % spec.n_classes, y)
    return Dataset(x, y, spec.name)


@dataclass(frozen=True)
class ShiftDelta:
    """A rigid-motion-plus-scale delta composed onto a base domain."""

    rotation: float = 0.0
    translation: tuple[float, ...] = ()
    scale: float = 1.0
    name: str = ""


def make_shift_family(base: DomainSpec, shifts: list[ShiftDelta]) -> list[DomainSpec]:
    """One spec per delta, each the composition delta-after-base.

    Composing ``p -> s' R' (s R p + t) + t'`` keeps the family inside the
    same parameterization: rotations add, scales multiply, and the base
    translation is carried through the delta's motion.
    """
    if not shifts:
        raise ConfigError("make_shift_family needs at least one delta")
    out = []
    base_t = np.asarray(base.translation)
    for i, delta in enumerate(shifts):
        if delta.scale <= 0.0:
            raise ConfigError("shift scale must be positive")
        dt = np.asarray(tuple(float(v) for v in delta.translation) or (0.0,) * base.d)
        if dt.shape != (base.d,):
            raise ConfigError("shift translation must have dimension d")
        r = rotation_matrix(delta.rotation, base.d)
        new_t = delta.scale * r @ base_t + dt
        out.append(
            DomainSpec(
                name=delta.name or f"{base.name}_shift{i}",
                n_classes=base.n_classes,
                d=base.d,
                base_means=base.base_means,
                cov_scale=base.cov_scale,
                rotation=base.rotation + delta.rotation,
                translation=tuple(new_t),
                scale=base.scale * delta.scale,
                label_noise=base.label_noise,
            )
        )
    return out


def split_rows(ds: Dataset, n_first: int) -> tuple[Dataset, Dataset]:
    """Deterministic row split: the first n_first rows and the rest."""
    if not 1 <= n_first < ds.n:
        raise ConfigError(f"split point {n_first} outside (0, {ds.n})")
    return (
        Dataset(ds.x[:n_first], ds.y[:n_first], ds.domain_name),
        Dataset(ds.x[n_first:], ds.y[n_first:], ds.domain_name),
    )


# ---------------------------------------------------------------------------
# CSV dataset files: header "y,x0,...,x{d-1}", one sample per row


def save_csv(ds: Dataset, path) -> None:
    write_labelled_rows(path, ["y", *(f"x{i}" for i in range(ds.d))], ds.y, ds.x)


def write_labelled_rows(path, columns: list[str], labels: np.ndarray, rows: np.ndarray) -> None:
    """A CSV file of a header of ``columns`` and, per row, its int label
    followed by its values at 17 significant digits, which read back
    bit-exact."""
    line = "%d" + ",%.17g" * rows.shape[1] + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        # 256 rows at a time, so neither the text nor the Python values of
        # the whole array are held at once
        for i in range(0, len(rows), 256):
            block = zip(labels[i : i + 256].tolist(), rows[i : i + 256].tolist())
            fh.write("".join([line % (label, *row) for label, row in block]))


def load_csv(path, domain_name: str | None = None) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[0] != "y" or any(h != f"x{i}" for i, h in enumerate(header[1:])):
        raise DataFormatError(f"{path}: line 1: bad header {lines[0]!r}")
    d = len(header) - 1
    if d < 1:
        raise DataFormatError(f"{path}: line 1: header has no feature columns")
    ys: list[int] = []
    xs: list[list[float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != d + 1:
            raise DataFormatError(
                f"{path}: line {lineno}: expected {d + 1} columns, got {len(parts)}"
            )
        try:
            label = int(parts[0])
        except ValueError:
            raise DataFormatError(
                f"{path}: line {lineno}: non-integer label {parts[0]!r}"
            ) from None
        try:
            row = [float(v) for v in parts[1:]]
        except ValueError:
            raise DataFormatError(f"{path}: line {lineno}: malformed row") from None
        ys.append(label)
        xs.append(row)
    if not ys:
        raise DataFormatError(f"{path}: dataset has zero rows")
    name = domain_name if domain_name is not None else _stem(path)
    return Dataset(xs, ys, name)


def _stem(path) -> str:
    text = str(path)
    base = text.rsplit("/", 1)[-1]
    return base.rsplit(".", 1)[0] if "." in base else base


# ---------------------------------------------------------------------------
# JSON domain-spec manifests


def save_manifest(specs: list[DomainSpec], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json(specs), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifest(path) -> list[DomainSpec]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise DataFormatError(f"{path}: manifest must be a JSON list")
    return from_json(list[DomainSpec], data)

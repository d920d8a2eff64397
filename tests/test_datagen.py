"""Synthetic shifted-domain generator: spec validation, sampling
statistics, the shift family's affine composition, CSV and manifest
round trips."""
from __future__ import annotations

import math

import numpy as np
import pytest

from mdda.datagen import (
    Dataset,
    DomainSpec,
    ShiftDelta,
    load_csv,
    load_manifest,
    make_shift_family,
    rotation_matrix,
    sample_domain,
    save_csv,
    save_manifest,
    split_rows,
    write_labelled_rows,
)
from mdda.errors import ConfigError, DataFormatError, NonFiniteError
from mdda.rng import stream

from helpers import concat_datasets, domain_centroids, write_labelled_rows_per_value


def _spec(**overrides) -> DomainSpec:
    base = dict(
        name="base",
        n_classes=3,
        d=2,
        base_means=((0.0, 0.0), (3.0, 0.0), (0.0, 3.0)),
        cov_scale=0.3,
    )
    base.update(overrides)
    return DomainSpec(**base)


# ---------------------------------------------------------------------------
# validation


def test_spec_validation():
    with pytest.raises(ConfigError, match="distinct"):
        _spec(base_means=((1.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ConfigError, match="label_noise"):
        _spec(label_noise=0.5)
    with pytest.raises(ConfigError, match="rotation"):
        DomainSpec(name="line", n_classes=2, d=1, base_means=((0.0,), (1.0,)),
                   cov_scale=0.1, rotation=0.3)
    with pytest.raises(ConfigError, match="cov_scale"):
        _spec(cov_scale=0.0)
    with pytest.raises(ConfigError, match="translation"):
        _spec(translation=(1.0,))
    with pytest.raises(ConfigError, match="means"):
        _spec(base_means=((0.0, 0.0), (3.0, 0.0)))


def test_dataset_validation():
    with pytest.raises(ConfigError, match="zero rows"):
        Dataset(x=np.zeros((0, 2)), y=np.zeros(0, dtype=np.int64), domain_name="none")
    with pytest.raises(ConfigError):
        Dataset(x=np.zeros((3, 2)), y=np.zeros(2, dtype=np.int64), domain_name="ragged")
    with pytest.raises(ConfigError):
        Dataset(x=np.zeros((2, 2)), y=np.array([0, -1]), domain_name="negative")


# ---------------------------------------------------------------------------
# geometry


def test_rotation_matrix_conventions():
    np.testing.assert_allclose(rotation_matrix(0.0, 2), np.eye(2), atol=1e-15)
    quarter = rotation_matrix(math.pi / 2.0, 2)
    np.testing.assert_allclose(quarter, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)
    embedded = rotation_matrix(0.3, 4)
    np.testing.assert_allclose(embedded[:2, :2], rotation_matrix(0.3, 2), atol=1e-15)
    np.testing.assert_allclose(embedded[2:, 2:], np.eye(2), atol=1e-15)
    np.testing.assert_allclose(embedded @ embedded.T, np.eye(4), atol=1e-12)


def test_half_turn_swaps_opposite_centroids():
    spec = DomainSpec(name="pair", n_classes=2, d=2, base_means=((1.0, 0.0), (-1.0, 0.0)),
                      cov_scale=0.2, rotation=math.pi)
    np.testing.assert_allclose(domain_centroids(spec), [[-1.0, 0.0], [1.0, 0.0]], atol=1e-12)


def test_near_zero_spread_collapses_to_centroids():
    spec = _spec(cov_scale=1e-12, rotation=0.4, translation=(1.0, -0.5))
    ds = sample_domain(spec, 60, stream(4, "point"))
    centroids = domain_centroids(spec)
    np.testing.assert_allclose(ds.x, centroids[ds.y], atol=1e-9)


# ---------------------------------------------------------------------------
# sampling statistics


def test_sample_means_match_centroids():
    spec = _spec(cov_scale=0.5, rotation=0.7, translation=(1.0, -2.0), scale=1.3)
    n = 100_000
    ds = sample_domain(spec, n, stream(12, "mc"))
    centroids = domain_centroids(spec)
    sigma = spec.scale * spec.cov_scale
    for cls in range(spec.n_classes):
        points = ds.x[ds.y == cls]
        standard_error = sigma / math.sqrt(points.shape[0])
        assert np.all(np.abs(points.mean(axis=0) - centroids[cls]) <= 3.0 * standard_error)


def test_same_stream_reproduces_samples_bitwise():
    a = sample_domain(_spec(), 200, stream(5, "same"))
    b = sample_domain(_spec(), 200, stream(5, "same"))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


def test_label_noise_flip_rate():
    spec = _spec(base_means=((0.0, 0.0), (4.0, 0.0), (0.0, 4.0)), cov_scale=0.01, label_noise=0.3)
    ds = sample_domain(spec, 20_000, stream(6, "noise"))
    centroids = domain_centroids(spec)
    gaps = ((ds.x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    geometric_class = np.argmin(gaps, axis=1)
    flip_rate = float(np.mean(ds.y != geometric_class))
    assert abs(flip_rate - 0.3) <= 0.015
    assert np.all((ds.y >= 0) & (ds.y < spec.n_classes))


def test_nearest_centroid_oracle_on_separated_classes():
    spec = _spec()
    ds = sample_domain(spec, 2000, stream(8, "oracle"))
    centroids = domain_centroids(spec)
    gaps = ((ds.x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    accuracy = float(np.mean(np.argmin(gaps, axis=1) == ds.y))
    assert accuracy >= 0.999


# ---------------------------------------------------------------------------
# shift family


def test_identity_delta_preserves_the_base_geometry():
    base = _spec(rotation=0.3, translation=(0.5, -0.25), scale=1.2)
    (same,) = make_shift_family(base, [ShiftDelta(name="copy")])
    np.testing.assert_allclose(domain_centroids(same), domain_centroids(base), atol=1e-12)
    assert same.cov_scale == base.cov_scale
    assert same.scale == base.scale


def test_shift_family_order_and_empty_list():
    base = _spec()
    family = make_shift_family(
        base, [ShiftDelta(rotation=0.2, name="a"), ShiftDelta(scale=2.0, name="b")]
    )
    assert [s.name for s in family] == ["a", "b"]
    with pytest.raises(ConfigError):
        make_shift_family(base, [])


def test_shift_composition_acts_on_centroids():
    base = DomainSpec(name="base", n_classes=2, d=2, base_means=((1.0, 0.5), (-0.5, 2.0)),
                      cov_scale=0.3, rotation=0.4, translation=(0.7, -1.1), scale=1.2)
    delta = ShiftDelta(rotation=0.6, translation=(2.0, 0.5), scale=1.5, name="moved")
    (shifted,) = make_shift_family(base, [delta])
    rotation = rotation_matrix(0.6, 2)
    expected = 1.5 * domain_centroids(base) @ rotation.T + np.array([2.0, 0.5])
    np.testing.assert_allclose(domain_centroids(shifted), expected, atol=1e-12)


def test_graded_rotations_move_centroids_monotonically():
    base = DomainSpec(name="arc", n_classes=3, d=2,
                      base_means=((1.5, 0.0), (3.0, 0.0), (4.5, 0.0)), cov_scale=0.25)
    family = make_shift_family(
        base, [ShiftDelta(rotation=r, name=f"rot{r}") for r in (0.1, 0.5, 1.5)]
    )
    reference = domain_centroids(base)
    distances = [
        float(np.linalg.norm(domain_centroids(s) - reference, axis=1).mean()) for s in family
    ]
    assert distances[0] < distances[1] < distances[2]


# ---------------------------------------------------------------------------
# splitting and pooling


def test_split_and_concat_round_trip():
    ds = sample_domain(_spec(), 30, stream(2, "rows"))
    head, tail = split_rows(ds, 12)
    assert head.n == 12 and tail.n == 18
    back = concat_datasets([head, tail], ds.domain_name)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)
    with pytest.raises(ConfigError):
        split_rows(ds, 30)
    with pytest.raises(ConfigError):
        concat_datasets([], "none")


# ---------------------------------------------------------------------------
# CSV files


def test_csv_round_trip_is_lossless(tmp_path):
    ds = sample_domain(_spec(), 25, stream(1, "csv"))
    path = tmp_path / "domain.csv"
    save_csv(ds, path)
    header = path.read_text().splitlines()[0]
    assert header == "y," + ",".join(f"x{i}" for i in range(ds.d))
    back = load_csv(path, domain_name=ds.domain_name)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)
    assert back.domain_name == ds.domain_name


def test_csv_writer_is_byte_equal_to_the_per_value_writer(tmp_path):
    # signed zero, the smallest subnormal, huge and integral values and
    # values that need all 17 digits, in more rows than one written block
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -2.0, 1e16, 0.1 + 0.2, 1.0 / 3.0,
               2.0 / 3.0, 123456789.01234567, np.nextafter(1.0, 2.0)]
    rows = np.concatenate([np.array(special).reshape(-1, 2),
                           stream(3, "csv").normals(2 * 5000).reshape(-1, 2) * 1e3])
    labels = np.arange(len(rows)) % 3
    for n in (0, 1, len(rows)):
        write_labelled_rows(tmp_path / "new.csv", ["y", "x0", "x1"], labels[:n], rows[:n])
        write_labelled_rows_per_value(tmp_path / "old.csv", ["y", "x0", "x1"], labels[:n], rows[:n])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_csv_malformed_line_is_located(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,x0,x1\na,b\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_csv(path)


def test_csv_with_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("y,x0,x1\n")
    with pytest.raises(DataFormatError, match="zero rows"):
        load_csv(path)


def test_csv_with_a_non_finite_value(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("y,x0,x1\n0,1.0,nan\n")
    with pytest.raises(NonFiniteError, match="non-finite"):
        load_csv(path)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("label,x0\n0,1.0\n")
    with pytest.raises(DataFormatError):
        load_csv(path)


# ---------------------------------------------------------------------------
# manifests


def test_manifest_round_trip(tmp_path):
    base = _spec()
    family = make_shift_family(base, [ShiftDelta(rotation=0.5, translation=(1.0, 0.0), name="tilt")])
    path = tmp_path / "manifest.json"
    save_manifest([base] + family, path)
    assert load_manifest(path) == [base] + family


def test_manifest_must_be_a_list(tmp_path):
    path = tmp_path / "object.json"
    path.write_text('{"name": "x"}\n')
    with pytest.raises(DataFormatError, match="list"):
        load_manifest(path)

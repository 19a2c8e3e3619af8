import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fuzzcoh import (BandSpec, ConfigError, DataError, FuzzyPartition, LaggedDependenceSet,
                     MtsDataset, RegionMap, SimConfig, design_bandpass, load_csv, save_csv,
                     select_regions)
from fuzzcoh.mts import _read_table, format_float, segment_rows


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def _partition(memberships=None, centers=None):
    return FuzzyPartition(
        memberships=np.full((3, 2), 0.5) if memberships is None else memberships,
        centers=np.zeros((2, 2)) if centers is None else centers,
        fuzziness=2.0, objective_trace=(1.0,), iterations=1, converged=True, seed=0)


_BETA = BandSpec("Beta", 12.0, 30.0, 128.0)

# (array passed in, object built from it, the array the object stores)
FROZEN_ARRAYS = {
    "MtsBlock.data": (lambda: np.zeros((5, 2)),
                      lambda a: MtsDataset(data=a[None], p=1, q=1,
                                           sample_rate_hz=1.0).blocks[0].data),
    "MtsDataset.data": (lambda: np.zeros((2, 10, 2)),
                        lambda a: MtsDataset(data=a, p=1, q=1, sample_rate_hz=1.0).data),
    "LaggedDependenceSet.lags": (lambda: np.stack([np.eye(2)] * 2),
                                 lambda a: LaggedDependenceSet(p=1, q=1, lags=a).lags),
    "FilterDesign.sos": (lambda: design_bandpass(_BETA).sos.copy(),
                         lambda a: replace(design_bandpass(_BETA), sos=a).sos),
    "FuzzyPartition.memberships": (lambda: np.full((3, 2), 0.5),
                                   lambda a: _partition(memberships=a).memberships),
    "FuzzyPartition.centers": (lambda: np.zeros((2, 2)),
                               lambda a: _partition(centers=a).centers),
    "SimConfig.mixing_a0": (lambda: np.zeros((8, 5)),
                            lambda a: SimConfig(seed=0, mixing_a0=a,
                                                mixing_a1=np.zeros((8, 5))).mixing_a0),
}


@pytest.mark.parametrize("stored", FROZEN_ARRAYS)
def test_block_data_is_readonly(stored):
    make, build = FROZEN_ARRAYS[stored]
    given = make()
    kept = build(given)
    assert given.flags.writeable  # the caller's array is left alone
    with pytest.raises(ValueError):
        kept[(0,) * kept.ndim] = 1.0


@pytest.mark.parametrize("shape, extra, match", [
    ((10, 2), {}, "must be (blocks, samples, channels)"),
    ((0, 10, 2), {}, "at least one block"),
    ((2, 10, 3), {}, "block has 3 channels but p+q=2"),
    ((2, 10, 2), {"labels": (0, 1, 1)}, "3 labels for 2 blocks"),
    ((2, 10, 2), {"channel_names": ("a",)}, "channel_names has 1 entries, expected 2"),
    ((2, 10, 2), {"p": 0}, "need p >= 1 and q >= 1, got p=0, q=1"),
    ((2, 1, 2), {}, "block needs at least 2 samples, got 1"),
    ((3, 10, 2), {"nan_at": (1, 7, 1)}, "non-finite value at block 1, sample 7, channel 1"),
    ((2, 10, 2), {"sample_rate_hz": 0.0}, "sample_rate_hz must be positive, got 0.0"),
])
def test_dataset_validation(shape, extra, match):
    data, extra = np.zeros(shape), dict(extra)
    if "nan_at" in extra:
        data[extra.pop("nan_at")] = np.nan
        data[2, 0, 0] = np.inf  # only the first non-finite value is named
    with pytest.raises(DataError, match=re.escape(match)):
        MtsDataset(**{"data": data, "p": 1, "q": 1, "sample_rate_hz": 1.0, **extra})


def test_dataset_defaults():
    ds = MtsDataset(data=np.zeros((2, 10, 2)), p=1, q=1, sample_rate_hz=1.0, labels=(None, None))
    assert ds.labels is None and ds.channel_names == ("ch0", "ch1")
    assert (ds.n_blocks, ds.n_samples) == (2, 10) and not ds.data.flags.writeable
    assert [(b.n_samples, b.n_channels) for b in ds.blocks] == [(10, 2), (10, 2)]


def test_minimal_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    write_csv(path, ["a", "b"], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    ds = load_csv(path, sample_rate_hz=4.0, block_length=4, groups=(1, 1))
    assert ds.n_blocks == 1
    assert ds.blocks[0].n_samples == 4
    assert ds.channel_names == ("a", "b")


def test_csv_nan_rejected_with_location(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, ["a", "b"], [[1.0, 2.0], [3.0, "NaN"]])
    with pytest.raises(DataError, match="row 2, column 1"):
        load_csv(path, sample_rate_hz=1.0, block_length=2, groups=(1, 1))


def test_csv_non_numeric_and_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, ["a", "b"], [[1.0, "oops"]])
    with pytest.raises(DataError, match="non-numeric"):
        load_csv(path, sample_rate_hz=1.0, block_length=2, groups=(1, 1))
    path2 = tmp_path / "ragged.csv"
    with open(path2, "w") as fh:
        fh.write("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(DataError, match="row 2"):
        load_csv(path2, sample_rate_hz=1.0, block_length=2, groups=(1, 1))


@pytest.mark.parametrize("groups, match", [
    (None, "groups=(p,q) is required"),
    ((1, 2), "groups (1,2) do not cover the 2 channels"),
])
def test_groups_checked_before_the_body_is_parsed(tmp_path, groups, match):
    # the body's bad cell would be a DataError: the groups are checked first
    path = tmp_path / "bad.csv"
    write_csv(path, ["a", "b"], [[1.0, 2.0], [3.0, "oops"]])
    with pytest.raises(ConfigError, match=re.escape(match)):
        load_csv(path, sample_rate_hz=1.0, block_length=2, groups=groups)


def test_csv_blank_lines_skipped(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("a,b\n1.0,2.0\n\n3.0,4.0\n\n", encoding="utf-8")
    ds = load_csv(path, sample_rate_hz=1.0, block_length=2, groups=(1, 1))
    np.testing.assert_array_equal(ds.blocks[0].data, [[1.0, 2.0], [3.0, 4.0]])
    path.write_text("a,b\n1.0,2.0\n\n3.0,oops\n", encoding="utf-8")
    with pytest.raises(DataError, match="row 3, column 1"):  # a blank line keeps its number
        load_csv(path, sample_rate_hz=1.0, block_length=2, groups=(1, 1))


def test_csv_body_parsed_into_flat_buffer(tmp_path):
    # a list of Python floats would take about 6.5 times the float64 body
    data = np.random.default_rng(1).standard_normal((20_000, 8))
    path = tmp_path / "body.csv"
    np.savetxt(path, data, delimiter=",", header=",".join(f"ch{i}" for i in range(8)),
               comments="", fmt="%.17g")
    tracemalloc.start()
    try:
        header, values = _read_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert header == [f"ch{i}" for i in range(8)]
    np.testing.assert_array_equal(values, data)
    assert peak <= 1.5 * data.nbytes


def test_segmentation_drops_remainder():
    values = np.arange(22, dtype=float).reshape(11, 2)
    with pytest.warns(UserWarning, match="3 trailing rows"):
        parts = segment_rows(values, 4)
    assert len(parts) == 2
    assert parts[1][0, 0] == 8.0


def test_paper_scale_segmentation(tmp_path):
    # 115,200 rows x 8 channels at block length 384 -> 300 blocks
    rng = np.random.default_rng(0)
    path = tmp_path / "big.csv"
    data = rng.standard_normal((115_200, 8)).round(4)
    header = ",".join(f"ch{i}" for i in range(8))
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.4f")
    ds = load_csv(path, sample_rate_hz=128.0, block_length=384, groups=(4, 4))
    assert ds.n_blocks == 300
    assert all(b.n_samples == 384 for b in ds.blocks)


def test_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(3)
    data = np.stack([rng.standard_normal((16, 3)) * 10.0 ** rng.integers(-8, 8)
                     for _ in range(3)])
    ds = MtsDataset(data=data, p=2, q=1, sample_rate_hz=128.0, channel_names=("a", "b", "c"),
                    labels=tuple(i % 2 for i in range(3)))
    out = tmp_path / "out.csv"
    meta = tmp_path / "out.json"
    save_csv(ds, out, metadata_path=meta)
    ds2 = load_csv(out, sample_rate_hz=128.0, metadata_path=meta, groups=(2, 1))
    for b1, b2 in zip(ds.blocks, ds2.blocks):
        np.testing.assert_array_equal(b1.data, b2.data)
    assert ds.labels == ds2.labels
    # a second save produces identical bytes
    out2 = tmp_path / "out2.csv"
    save_csv(ds2, out2)
    save0 = out.read_bytes()
    # strip is needed only if metadata differs; data bytes must match
    assert out2.read_bytes() == save0


def test_format_float_shortest_roundtrip():
    for v in [0.1, 1.0, -3.5e-17, 123456.789, 2.0 ** -52]:
        assert float(format_float(v)) == v


def test_metadata_sidecar_labels(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["a", "b"], [[float(i), float(-i)] for i in range(8)])
    meta = tmp_path / "d.json"
    meta.write_text(json.dumps({"block_length": 4, "labels": [1, 0], "sample_rate_hz": 4.0}))
    ds = load_csv(path, groups=(1, 1), metadata_path=meta)
    assert ds.labels == (1, 0)


def test_sidecar_regions_key_is_not_a_selector(tmp_path):
    # regions come from the pipeline config; a sidecar key does not regroup
    path = tmp_path / "d.csv"
    write_csv(path, ["a", "b"], [[float(i), float(-i)] for i in range(8)])
    meta = tmp_path / "d.json"
    meta.write_text(json.dumps({"block_length": 4, "sample_rate_hz": 4.0,
                                "regions": {"A": ["a"], "B": ["b"]}}))
    ds = load_csv(path, groups=(1, 1), metadata_path=meta)
    assert ds.n_blocks == 2 and ds.channel_names == ("a", "b")


class TestRegions:
    MAP = RegionMap(regions={"LF": ("f1", "f2"), "RT": ("t1",), "OC": ("o1",)})

    def make_dataset(self):
        rng = np.random.default_rng(0)
        return MtsDataset(data=rng.standard_normal((1, 12, 4)), p=2, q=2, sample_rate_hz=8.0,
                          channel_names=("f1", "f2", "t1", "o1"), labels=(1,))

    def test_select_pair_order(self):
        ds = self.make_dataset()
        sel = select_regions(ds, self.MAP, ("RT", "LF"))
        assert sel.channel_names == ("t1", "f1", "f2")
        assert (sel.p, sel.q) == (1, 2)
        np.testing.assert_array_equal(sel.blocks[0].data[:, 1], ds.blocks[0].data[:, 0])
        assert sel.labels == (1,)

    def test_same_region_pair_rejected(self):
        with pytest.raises(ConfigError, match="differ"):
            select_regions(self.make_dataset(), self.MAP, ("LF", "LF"))

    def test_missing_channel(self):
        bad = RegionMap(regions={"A": ("f1", "zz"), "B": ("t1",)})
        with pytest.raises(ConfigError, match="zz"):
            select_regions(self.make_dataset(), bad, ("A", "B"))

    def test_overlapping_regions_rejected(self):
        with pytest.raises(ConfigError, match="appears in regions"):
            RegionMap(regions={"A": ("f1",), "B": ("f1", "t1")})

    def test_empty_region_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            RegionMap(regions={"A": (), "B": ("t1",)})

    @pytest.mark.parametrize("regions, pairs, match", [
        ({"A": "f1", "B": ("t1",)}, (), "regions['A'] must be a list, got 'f1'"),
        ({"A": ("f1", 2), "B": ("t1",)}, (), "regions['A'][1] must be str, got 2"),
        ({"A": ("f1",), "B": ("t1",)}, (("A", "B", "C"),), "pairs[0] must be a list of 2"),
    ])
    def test_malformed_map_rejected(self, regions, pairs, match):
        with pytest.raises(ConfigError, match=re.escape(match)):
            RegionMap(regions=regions, pairs=pairs)

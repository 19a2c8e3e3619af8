import json
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fuzzcoh import (BandSpec, ConfigError, DataError, FuzzyPartition, MtsDataset, RegionMap,
                     SimConfig, contaminate, design_bandpass, gen_dataset, load_csv, save_csv,
                     select_regions)
from fuzzcoh.mts import _read_table, segment_rows, write_table


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
                      lambda a: MtsDataset(data=a[None], p=1,
                                           sample_rate_hz=1.0).blocks[0].data),
    "MtsDataset.data": (lambda: np.zeros((2, 10, 2)),
                        lambda a: MtsDataset(data=a, p=1, sample_rate_hz=1.0).data),
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
    before = kept.copy()
    assert given.flags.writeable  # the caller's array is left alone
    with pytest.raises(ValueError):
        kept[(0,) * kept.ndim] = 1.0
    given[...] = np.nan  # the record owns a copy: a later write does not reach it
    np.testing.assert_array_equal(kept, before)


def test_readonly_view_of_a_writeable_array_is_copied():
    given = np.zeros((2, 10, 2))
    view = given.view()
    view.flags.writeable = False  # read-only, but its root is not
    ds = MtsDataset(data=view, p=1, sample_rate_hz=1.0)
    given[...] = np.nan
    assert not np.shares_memory(ds.data, given) and np.isfinite(ds.data).all()


def test_readonly_array_over_a_readonly_root_is_kept():
    body = np.arange(40.0).reshape(20, 2).copy()  # owns its memory, as a parsed body does
    body.flags.writeable = False
    blocks = segment_rows(body, 10)  # a reshape view: its base is the body, not None
    ds = MtsDataset(data=blocks, p=1, sample_rate_hz=1.0)
    assert ds.data is blocks
    assert replace(ds, labels=(0, 1)).data is ds.data  # a read-only dataset array is shared
    reversed_rows = body.reshape(2, 10, 2)[:, ::-1]  # not C-contiguous: copied into C order
    assert MtsDataset(data=reversed_rows, sample_rate_hz=1.0).data.flags.c_contiguous
    raw = np.frombuffer(body.tobytes()).reshape(2, 10, 2)  # read-only over a bytes object
    assert not np.shares_memory(MtsDataset(data=raw, sample_rate_hz=1.0).data, raw)


def test_datasets_are_readonly_and_independent(tmp_path):
    generated = gen_dataset(SimConfig(seed=4, n_blocks=4, block_length=32))
    save_csv(generated, tmp_path / "sim.csv")
    loaded = load_csv(tmp_path / "sim.csv", sample_rate_hz=128.0, block_length=32)
    regions = RegionMap(regions={"x": ("X2", "X1"), "y": ("Y3",)})
    made = {"generated": (generated, None), "loaded": (loaded, None),
            "selected": (select_regions(loaded, regions, ("x", "y")), loaded),
            "contaminated": (contaminate(loaded, ["X1"], seed=1), loaded),
            "contaminated at scale 0": (contaminate(loaded, ["X1"], scale=0.0), loaded)}
    again = {"generated": gen_dataset(SimConfig(seed=4, n_blocks=4, block_length=32)),
             "loaded": load_csv(tmp_path / "sim.csv", sample_rate_hz=128.0, block_length=32)}
    for name, (ds, source) in made.items():
        assert not ds.data.flags.writeable, name
        with pytest.raises(ValueError):
            ds.data[0, 0, 0] = 1.0
        if source is not None:  # a derived dataset holds its own array
            assert not np.shares_memory(ds.data, source.data), name
        if name in again:  # a second load or generation is a second array
            np.testing.assert_array_equal(ds.data, again[name].data)
            assert not np.shares_memory(ds.data, again[name].data), name


def test_load_csv_peak_at_most_1_25_times_the_data(tmp_path):
    # the dataset keeps the parsed body; numpy's parser over-allocates the body
    # by up to a quarter while it grows, and 23,040 rows end early in a step;
    # 300 blocks of 1024 samples are the paper's scale
    for n_blocks, block_length in ((60, 384), (300, 1024)):
        data = np.random.default_rng(2).standard_normal((n_blocks * block_length, 8))
        path = tmp_path / "body.csv"
        np.savetxt(path, data, delimiter=",", header=",".join(f"ch{i}" for i in range(8)),
                   comments="", fmt="%.17g")
        tracemalloc.start()
        try:
            ds = load_csv(path, sample_rate_hz=128.0, block_length=block_length)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(ds.data.reshape(-1, 8), data)
        assert peak <= 1.25 * data.nbytes, n_blocks


@pytest.mark.parametrize("shape, extra, match", [
    ((10, 2), {}, "must be (blocks, samples, channels)"),
    ((0, 10, 2), {}, "at least one block"),
    ((2, 10, 3), {"p": 3}, "need 1 <= p < m = 3, got p=3"),
    ((2, 10, 2), {"labels": (0, 1, 1)}, "3 labels for 2 blocks"),
    ((2, 10, 2), {"channel_names": ("a",)}, "channel_names has 1 entries, expected 2"),
    ((2, 10, 2), {"p": 0}, "need 1 <= p < m = 2, got p=0"),
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
        MtsDataset(**{"data": data, "p": 1, "sample_rate_hz": 1.0, **extra})


def test_dataset_defaults():
    assert MtsDataset(data=np.zeros((2, 10, 2)), sample_rate_hz=1.0).p is None  # no split yet
    ds = MtsDataset(data=np.zeros((2, 10, 2)), p=1, sample_rate_hz=1.0, labels=(None, None))
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
    ((2, 1), "groups (2,1) do not cover the 2 channels"),
    ((1, 2), "groups (1,2) do not cover the 2 channels"),
])
def test_groups_checked_before_the_body_is_parsed(tmp_path, groups, match):
    # the body's bad cell would be a DataError: the groups are checked first
    path = tmp_path / "bad.csv"
    write_csv(path, ["a", "b"], [[1.0, 2.0], [3.0, "oops"]])
    with pytest.raises(ConfigError, match=re.escape(match)):
        load_csv(path, sample_rate_hz=1.0, block_length=2, groups=groups)


@pytest.mark.parametrize("groups", [(2, 0), (0, 2), (-1, 3)])
def test_groups_with_an_empty_side_refused_before_the_body(tmp_path, groups):
    # (-1, 3) covers the 2 channels; the body's bad cell is never parsed
    path = tmp_path / "q0.csv"
    path.write_text("a,b\n1,x\n")
    match = f"groups ({groups[0]},{groups[1]}) need at least one channel on each side"
    with pytest.raises(ConfigError, match=f"^{re.escape(match)}$"):
        load_csv(path, sample_rate_hz=1.0, groups=groups)


def test_split_set_only_by_groups(tmp_path):
    path = tmp_path / "ok.csv"
    write_csv(path, ["a", "b", "c"], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert load_csv(path, sample_rate_hz=1.0).p is None
    assert load_csv(path, sample_rate_hz=1.0, groups=(2, 1)).p == 2


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


@pytest.mark.parametrize("rows, block_length, error, match", [
    (11, 1, ConfigError, "block_length must be >= 2, got 1"),
    (11, 0, ConfigError, "block_length must be >= 2, got 0"),
    (3, 4, DataError, "only 3 rows, need at least one block of 4"),
])
def test_segmentation_rejects(rows, block_length, error, match):
    with pytest.raises(error, match=f"^{re.escape(match)}$"):
        segment_rows(np.zeros((rows, 2)), block_length)


@pytest.mark.parametrize("sidecar", [None, {"block_length": 2}, {"sample_rate_hz": None}])
def test_csv_needs_a_sample_rate(tmp_path, sidecar):
    path = tmp_path / "ok.csv"
    write_csv(path, ["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
    meta = None
    if sidecar is not None:
        meta = tmp_path / "meta.json"
        meta.write_text(json.dumps(sidecar), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^sample_rate_hz missing \(argument or metadata\)$"):
        load_csv(path, metadata_path=meta)


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
    ds = MtsDataset(data=data, p=2, sample_rate_hz=128.0, channel_names=("a", "b", "c"),
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


def test_write_table_round_trip_bit_exact(tmp_path):
    edge = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, 1e16, 1e-300, 1e300, 0.1, 2.0 ** -52, -3.5e-17, 123456.789]
    data = np.random.default_rng(4).standard_normal((300, 8))
    data.flat[:len(edge)] = edge
    path = tmp_path / "t.csv"
    write_table(path, [f"ch{i}" for i in range(8)], (row.tolist() for row in data))
    header, values = _read_table(path)
    assert header == [f"ch{i}" for i in range(8)]
    np.testing.assert_array_equal(values.view(np.int64), data.view(np.int64))  # -0.0 kept
    write_table(path, ["id", "band", "a", "b", "c", "d"],
                [[3, "raw", None, np.float64(0.1), 1e16, -0.0], [np.int64(4), "", 2, 5e-324, 1.5, 7]])
    assert path.read_bytes() == b"id,band,a,b,c,d\r\n3,raw,,0.1,1e+16,-0.0\r\n4,,2,5e-324,1.5,7\r\n"


# a CSV file (text, raw bytes, or None for a directory in its place) and what _read_table
# makes of it under features.csv's rules (band skipped, block_id an integer >= 0): the
# values, or the DataError text after the path
INPUT_RULES = {
    "quoted numbers": ('a,b\n"1.5","2"\n3,4\n', [[1.5, 2.0], [3.0, 4.0]]),
    "spaces around a number": ("a,b\n 1.5 , 2\n3,4\t\n", [[1.5, 2.0], [3.0, 4.0]]),
    "CRLF line endings": ("a,b\r\n1,2\r\n\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    "UTF-8 BOM": ("\ufeffa,b\n1,2\n", [[1.0, 2.0]]),
    "quoted text cell with a comma": ('block_id,band,d_1\n0,"a,b",0.5\n', [[0.0, 0.5]]),
    "comment line": ("a,b\n1,2\n# note\n3,4\n", "row 2: expected 2 cells, got 1"),
    "comment line first": ("a,b\n# note\n1,2\n", "row 1: expected 2 cells, got 1"),
    "long row": ("a,b\n1,2\n3,4,5\n", "row 2: expected 2 cells, got 3"),
    "short row": ("a,b\n1,2\n\n3\n", "row 3: expected 2 cells, got 1"),
    "long first row": ("a,b\n1,2,3\n4,5\n", "row 1: expected 2 cells, got 3"),
    "long features row": ("block_id,band,d_1\n0,raw,0.5\n1,raw,0.5,0.7\n",
                          "row 2: expected 3 cells, got 4"),
    "short features row": ("block_id,band,d_1\n0,raw,0.5\n1,raw\n",
                           "row 2: expected 3 cells, got 2"),
    "features rows without the text cell": ("block_id,band,d_1\n0\n1\n",
                                            "row 1: expected 3 cells, got 1"),
    "every row one cell short": ("a,b,c\n1,2\n3,4\n", "row 1: expected 3 cells, got 2"),
    "every row one cell short after a blank": ("a,b\n\n1\n2\n", "row 2: expected 2 cells, got 1"),
    "header only": ("a,b\n", "no data rows"),
    "header and blank lines": ("a,b\n\n\n", "no data rows"),
    "digit separator": ("a,b\n1_000,2\n", "non-numeric cell at row 1, column 0: '1_000'"),
    "bad cell after blanks": ("a,b\n1,2\n\n\n3,oops\n", "non-numeric cell at row 4, column 1: 'oops'"),
    "bad cell after a quoted line break": ('a,b\n"1\n",2\n\n3,x\n',
                                           "non-numeric cell at row 3, column 1: 'x'"),
    "long row after a quoted line break": ('a,b\n"1\n\n",2\n3,4,5\n', "row 2: expected 2 cells, got 3"),
    "nan after a quoted line break": ('a,b\n1,"2\r\n"\r\n\r\n3,nan\r\n',
                                      "non-finite value at row 3, column 1"),
    "empty cell": ("a,b\n1,2\n,4\n", "non-numeric cell at row 2, column 0: ''"),
    "nan after blanks": ("a,b\n\n1,2\n\n3,nan\n", "non-finite value at row 4, column 1"),
    "inf after blanks": ("a,b\r\n\r\n-inf,2\r\n", "non-finite value at row 2, column 0"),
    "bad block id after blanks": ("block_id,band,d_1\n0,raw,0.5\n\n1.5,raw,0.5\n",
                                  "bad block id at row 3, column 0"),
    "first bad cell wins": ("block_id,e_1\n0,0.5\n-1,inf\n2,nan\n",
                            "bad block id at row 2, column 0"),
    "Latin-1 byte in the header": (b"a\xb5V,b,c,d\n1,2,3,4\n5,6,7,8\n",
                                   "line 1 is not UTF-8 text: invalid start byte b'\\xb5'"),
    # past the header's read: numpy's body parse meets it, and the fault scan again
    "Latin-1 byte deep in the body": (b"a,b\n" + b"1,2\n" * 30000 + b"3,\xe9\n",
                                      "line 30002 is not UTF-8 text: invalid continuation byte"),
    "a directory": (None, "not a file"),
}


@pytest.mark.parametrize("case", INPUT_RULES)
def test_csv_input_rules(tmp_path, case):
    text, expected = INPUT_RULES[case]
    path = tmp_path / "in.csv"
    if text is None:
        path.mkdir()
    else:
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" must not escape
        if isinstance(expected, str):
            with pytest.raises(DataError) as err:
                _read_table(path, skip=("band",), block_ids=("block_id",))
            assert str(err.value).startswith(f"{path}: {expected}"), str(err.value)
        else:
            np.testing.assert_array_equal(
                _read_table(path, skip=("band",), block_ids=("block_id",))[1], expected)


@pytest.mark.parametrize("case", [c for c, (_, rule) in INPUT_RULES.items()
                                  if isinstance(rule, str)])
def test_csv_faults_named_whatever_numpy_says(tmp_path, monkeypatch, case):
    # the reader names each fault from the file itself, never from the text of numpy's error
    loadtxt = np.loadtxt

    def reworded(*args, **kwargs):
        try:
            return loadtxt(*args, **kwargs)
        except ValueError as exc:
            raise ValueError("numpy could not read this") from exc

    monkeypatch.setattr(np, "loadtxt", reworded)
    test_csv_input_rules(tmp_path, case)


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
        return MtsDataset(data=rng.standard_normal((1, 12, 4)), p=2, sample_rate_hz=8.0,
                          channel_names=("f1", "f2", "t1", "o1"), labels=(1,))

    def test_select_pair_order(self):
        ds = self.make_dataset()
        sel = select_regions(ds, self.MAP, ("RT", "LF"))
        assert sel.channel_names == ("t1", "f1", "f2")
        assert sel.p == 1 and ds.p == 2
        unsplit = select_regions(replace(ds, p=None), self.MAP, ("RT", "LF"))
        assert unsplit.p == 1 and unsplit.data.tobytes() == sel.data.tobytes()
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

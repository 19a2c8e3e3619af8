"""Core data model and outside input: blocks, datasets, region maps, CSV, JSON, config fields.

A recording is a long multichannel matrix cut into fixed-length blocks,
held as one (blocks, samples, channels) array.  Within a block the series
is treated as stationary; an estimator reads one block, ``data[i]``.
An analysis splits the channels into an X group (the first ``p``
columns) and a Y group (the rest); a dataset holds ``p`` only once a
split is chosen (``load_csv(groups=...)``, ``select_regions``, a simulation).
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import numbers
import re
import typing
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .exceptions import ConfigError, DataError

__all__ = [
    "MtsBlock",
    "MtsDataset",
    "RegionMap",
    "check_fields",
    "check_labels",
    "load_csv",
    "read_block_table",
    "read_header",
    "read_json",
    "save_csv",
    "segment_rows",
    "select_regions",
    "write_json",
    "write_table",
]


def _readonly(a) -> np.ndarray:
    """A read-only C-contiguous float64 copy of ``a``: the record owns it, and a later
    write to ``a``, which stays writeable, cannot reach behind the record's checks."""
    own = np.array(a, dtype=np.float64, order="C")
    own.flags.writeable = False
    return own


@dataclass(frozen=True)
class MtsBlock:
    """One block of a dataset as ``MtsDataset.blocks`` gives it: (T, m) ``data``, unchecked.

    The package reads ``dataset.data``; this record stays because the
    benchmark tracer counts ``len(dataset.blocks)`` and ``n_samples * n_channels``.
    """

    data: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class MtsDataset:
    """B equal-length blocks as one read-only float64 ``data`` array of shape (B, T, m).

    Block i is ``data[i]``, sampled at ``sample_rate_hz``.  ``p`` is None
    until an X/Y split is chosen; then the first ``p`` channels are the X
    group and the other m - p the Y group.  ``channel_names`` has m
    entries, ``ch<i>`` for channel i when none are given.  ``labels`` holds
    one ground-truth class tag (or None) per block for the evaluation
    protocol, and is None when no block has one.
    """

    data: np.ndarray
    sample_rate_hz: float
    p: Optional[int] = None
    channel_names: Optional[tuple[str, ...]] = None
    labels: Optional[tuple[Optional[int], ...]] = None

    def __post_init__(self):
        data = _readonly(self.data)
        if data.ndim != 3 or not len(data):
            raise DataError(f"dataset data must be (blocks, samples, channels) with at least "
                            f"one block, got shape {data.shape}")
        m = data.shape[2]
        if self.p is not None and not 1 <= self.p < m:
            raise DataError(f"need 1 <= p < m = {m}, got p={self.p}")
        if data.shape[1] < 2:
            raise DataError(f"block needs at least 2 samples, got {data.shape[1]}")
        if not np.isfinite(data).all():
            b, t, c = np.argwhere(~np.isfinite(data))[0]
            raise DataError(f"non-finite value at block {b}, sample {t}, channel {c}")
        if self.sample_rate_hz <= 0:
            raise DataError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        object.__setattr__(self, "data", data)
        names = tuple(f"ch{i}" for i in range(m)) if self.channel_names is None else tuple(
            self.channel_names)
        if len(names) != m:
            raise DataError(f"channel_names has {len(names)} entries, expected {m}")
        object.__setattr__(self, "channel_names", names)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != len(data):
                raise DataError(f"{len(labels)} labels for {len(data)} blocks")
            object.__setattr__(self, "labels", None if all(v is None for v in labels) else labels)

    @property
    def blocks(self) -> tuple[MtsBlock, ...]:
        """One ``MtsBlock`` over each ``data[i]``, built on every access."""
        return tuple(MtsBlock(d) for d in self.data)

    @property
    def n_blocks(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class RegionMap:
    """Named, disjoint channel groups plus optional region pairs.

    ``regions`` maps a region name to its channel names (order matters:
    it fixes the channel order of selections).  ``pairs`` optionally
    lists (X-region, Y-region) selections for pipeline runs.
    """

    regions: dict[str, tuple[str, ...]]
    pairs: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def __post_init__(self):
        check_fields(self)
        if not self.regions:
            raise ConfigError("region map has no regions")
        seen: dict[str, str] = {}
        for name, chans in self.regions.items():
            if not chans:
                raise ConfigError(f"region {name!r} is empty")
            for ch in chans:
                if ch in seen:
                    raise ConfigError(
                        f"channel {ch!r} appears in regions {seen[ch]!r} and {name!r}"
                    )
                seen[ch] = name
        for a, b in self.pairs:
            if a not in self.regions or b not in self.regions:
                raise ConfigError(f"pair ({a!r}, {b!r}) names an unknown region")
            if a == b:
                raise ConfigError(f"pair regions must differ, got ({a!r}, {a!r})")


# ---------------------------------------------------------------------------
# file formats: every CSV and JSON file of the package is read and written here
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path, payload) -> None:
    """Sorted keys, two-space indent, trailing newline; numpy values as Python ones."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path, what: str):
    """Parsed JSON file; a missing, non-UTF-8 or malformed file is a ``ConfigError``."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    if not path.is_file():
        raise ConfigError(f"{path}: not a file")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None


def check_groups(groups: tuple[int, int]) -> None:
    """A ``ConfigError`` unless the X/Y split ``groups=(p, q)`` has a channel on each side."""
    if min(groups) < 1:
        raise ConfigError(f"groups ({groups[0]},{groups[1]}) need at least one channel on each side")


def check_labels(labels, source) -> list:
    """``labels`` from a sidecar or truth file: a list of integers or nulls.

    A null marks an unlabelled block.  Anything else is a ``ConfigError``.
    """
    if not isinstance(labels, list):
        raise ConfigError(f"{source}: labels must be a list, got {labels!r}")
    bad = [v for v in labels if v is not None and type(v) is not int]
    if bad:
        raise ConfigError(f"{source}: labels must be integers or null, got {bad[0]!r}")
    return labels


def _checked(value, hint, name: str):
    """``value`` checked against the annotation ``hint`` of the field ``name``."""
    origin = typing.get_origin(hint)
    if origin is typing.Union:  # Optional[X]
        return None if value is None else _checked(value, typing.get_args(hint)[0], name)
    if hint is np.ndarray:  # integer or float entries only: no bools, no numeric strings
        try:
            entries = np.asarray(value, dtype=object).ravel()
            if all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in entries):
                return _readonly(value)
        except (TypeError, ValueError):
            pass
        raise ConfigError(f"{name} must be a numeric matrix, got {value!r}")
    if origin is tuple:
        args = typing.get_args(hint)
        fixed = args[-1] is not Ellipsis
        if not isinstance(value, (list, tuple)) or fixed and len(value) != len(args):
            size = f" of {len(args)} entries" if fixed else ""
            raise ConfigError(f"{name} must be a list{size}, got {value!r}")
        kinds = args if fixed else args[:1] * len(value)
        items = [_checked(v, t, f"{name}[{i}]") for i, (v, t) in enumerate(zip(value, kinds))]
        return tuple(t(v) if t in (int, float) else v for v, t in zip(items, kinds))
    if origin is dict and isinstance(value, dict):
        kt, vt = typing.get_args(hint)
        return {_checked(k, kt, name): _checked(v, vt, f"{name}[{k!r}]") for k, v in value.items()}
    accepted = {int: numbers.Integral, float: numbers.Real}.get(hint, origin or hint)
    if isinstance(value, accepted) and (hint is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(f"{name} must be {hint.__name__}, got {value!r}")


_type_hints = functools.cache(typing.get_type_hints)  # evaluates a class's annotations once


def check_fields(config) -> None:
    """Check every field of a frozen config dataclass against its annotation.

    int takes an integer and float a real number, never a bool; str, bool
    and dict take exactly that type, a typed dict's entries checked too;
    Optional allows null.  Lists become tuples with int()/float() entries,
    ndarrays read-only float64 arrays; scalars stay as given.  Anything
    else is a ``ConfigError`` naming the field.
    """
    for name, hint in _type_hints(type(config)).items():
        object.__setattr__(config, name, _checked(getattr(config, name), hint, name))


class JsonConfig:
    """Base of the config dataclasses, which ``from_dict`` builds from a JSON object."""

    @classmethod
    def from_dict(cls, raw: dict):
        try:
            return cls(**raw)
        except TypeError as exc:  # an unknown or missing key; check_fields types each value
            raise ConfigError(f"bad config: {exc}") from exc


def write_table(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header line, then one CSV line per row.

    ``csv`` writes a float (``np.float64`` too) as its shortest round-trip repr,
    so a reload is bit-identical, and None as an empty cell.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _open_csv(path):
    if not Path(path).exists():
        raise ConfigError(f"input file not found: {path}")
    if not Path(path).is_file():
        raise DataError(f"{path}: not a file")
    return open(path, newline="", encoding="utf-8")


def _utf8(read):
    """``read(path, ...)``, with a file that is not UTF-8 text a ``DataError`` naming the line."""
    @functools.wraps(read)
    def checked(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except UnicodeDecodeError as exc:  # numpy's offset counts from the start of a read chunk
            raw = Path(path).read_bytes()
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as whole:
                exc = whole
            line = raw.count(b"\n", 0, exc.start) + 1
            raise DataError(f"{path}: line {line} is not UTF-8 text: {exc.reason} "
                            f"{raw[exc.start:exc.end]!r}") from None
    return checked


def _header(reader, path) -> list[str]:
    try:
        return [h.strip() for h in next(reader)]
    except StopIteration:
        raise DataError(f"{path}: empty file") from None


@_utf8
def read_header(path) -> list[str]:
    """The column names of a CSV file."""
    with _open_csv(path) as fh:
        return _header(csv.reader(fh), path)


def _file_row(path, k: int) -> int:
    """The row number (from 1, after the header, blank lines counted) of body record ``k``.

    ``k`` counts non-blank records from 0, as numpy's parser does: a quoted
    cell that spans lines is one record.
    """
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        filled = (r for r, record in enumerate(reader, start=1) if record)
        return next(itertools.islice(filled, k, None))


def _width_error(path, k: int, width: int, got: int) -> DataError:
    return DataError(f"{path}: row {_file_row(path, k)}: expected {width} cells, got {got}")


def _body_error(path, exc: ValueError, width: int) -> DataError:
    """The ``DataError`` for numpy's error on a non-numeric cell or a ragged row.

    numpy counts rows among non-blank lines (from 0 for a cell, from 1 for
    a row) and columns from 1.
    """
    msg = str(exc)
    if cell := re.fullmatch(r"could not convert string (.*) to float64 at row (\d+), column (\d+)\.",
                            msg):
        text, k, c = cell.groups()  # numpy quotes the cell as repr() does
        return DataError(f"{path}: non-numeric cell at row {_file_row(path, int(k))}, "
                         f"column {int(c) - 1}: {text}")
    if ragged := re.match(r"the number of columns changed from \d+ to (\d+) at row (\d+);", msg):
        got, r = map(int, ragged.groups())
        return _width_error(path, r - 1, width, got)
    raise exc


@_utf8
def _read_table(path, skip: Sequence[str] = (), block_ids: Sequence[str] = ()):
    """Header and float body of a CSV file, every parsed cell checked.

    Columns named in ``skip`` are neither parsed nor returned; those in
    ``block_ids`` must hold integers >= 0.  A ragged row, a non-numeric
    or non-finite cell, a bad block id, or an empty body raises a
    ``DataError`` naming the first such row (from 1, after the header,
    blank lines counted) and column (from 0).  numpy's C parser reads the
    body into one float64 array; blank lines are skipped.
    """
    header = read_header(path)
    cols = [c for c, h in enumerate(header) if h not in skip]
    body = dict(delimiter=",", quotechar='"', comments=None, encoding="utf-8", skiprows=1, ndmin=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy's notes on blank lines and no data
        first = np.loadtxt(path, dtype=str, max_rows=1, **body)
        if not first.size:
            raise DataError(f"{path}: no data rows")
        if first.shape[1] != len(header):  # numpy checks every other row against this one
            raise _width_error(path, 0, len(header), first.shape[1])
        try:  # a skipped cell is not parsed
            values = np.loadtxt(path, converters={c: lambda _: 0.0 for c, h in enumerate(header)
                                                  if h in skip}, **body)
        except ValueError as exc:
            raise _body_error(path, exc, len(header)) from None
    if len(cols) < len(header):
        values = values[:, cols]
    ok = np.isfinite(values)
    for j, c in enumerate(cols):
        if header[c] in block_ids:
            ok[:, j] &= (values[:, j] >= 0) & (values[:, j] == np.floor(values[:, j]))
    if not ok.all():
        i, j = np.unravel_index(ok.argmin(), ok.shape)
        v = float(values[i, j])
        at = f"at row {_file_row(path, int(i))}, column {cols[j]}: {v!r}"
        if not math.isfinite(v):
            raise DataError(f"{path}: non-finite value {at}")
        raise DataError(f"{path}: bad block id {at} (need an integer >= 0)")
    return [header[c] for c in cols], values


def read_block_table(path, prefix: str) -> tuple[np.ndarray, list[int]]:
    """The ``prefix`` columns and the integer ``block_id`` column of a per-block table.

    A text ``band`` column (features.csv) is skipped by name.
    """
    header, values = _read_table(path, skip=("band",), block_ids=("block_id",))
    cols = [c for c, h in enumerate(header) if h.startswith(prefix)]
    if "block_id" not in header or not cols:
        raise DataError(f"{path}: needs a block_id column and {prefix}* columns, got {header}")
    return values[:, cols], [int(v) for v in values[:, header.index("block_id")]]


def segment_rows(values: np.ndarray, block_length: int) -> np.ndarray:
    """Cut a (rows, m) matrix into floor(rows / block_length) full blocks: an (n, L, m) view.

    Trailing remainder rows are dropped with a warning.
    """
    if block_length < 2:
        raise ConfigError(f"block_length must be >= 2, got {block_length}")
    n = values.shape[0] // block_length
    if n == 0:
        raise DataError(
            f"only {values.shape[0]} rows, need at least one block of {block_length}"
        )
    dropped = values.shape[0] - n * block_length
    if dropped:
        warnings.warn(f"dropping {dropped} trailing rows (partial block)", stacklevel=2)
    return values[: n * block_length].reshape(n, block_length, values.shape[1])


def load_csv(
    path,
    *,
    sample_rate_hz: Optional[float] = None,
    block_length: Optional[int] = None,
    groups: Optional[tuple[int, int]] = None,
    metadata_path=None,
) -> MtsDataset:
    """Load a channels-as-columns CSV into a segmented dataset.

    The file must have one header row naming the channels and a numeric
    body.  Blocks come from a fixed ``block_length``, as one reshape of
    the body (``segment_rows``); without one the whole file is a single
    block.  ``groups=(p, q)`` chooses the X/Y split: the first p columns
    are X, the next q are Y, and groups with an empty side, or that do not
    cover the header's channels, are a ``ConfigError`` raised before the
    body is parsed.
    Without groups the dataset has no split (``p`` is None) until
    ``select_regions`` chooses one by channel name.

    An optional JSON metadata sidecar may supply ``block_length`` (an
    integer), ``sample_rate_hz`` (a number) and ``labels``; a value of
    another type is a ``ConfigError`` naming the sidecar and the key,
    and other keys are ignored.  Explicit keyword arguments win over the
    sidecar.  Sidecar labels that do not number the blocks are a
    ``DataError``.
    """
    meta = {} if metadata_path is None else read_json(metadata_path, "metadata file")
    meta = _checked(meta, dict, f"{metadata_path}: the sidecar")
    for key, hint in (("block_length", int), ("sample_rate_hz", float)):
        meta[key] = _checked(meta.get(key), Optional[hint], f"{metadata_path}: {key}")
    if block_length is None:
        block_length = meta["block_length"]
    labels = meta.get("labels")
    if labels is not None:
        check_labels(labels, metadata_path)
    if sample_rate_hz is None:
        sample_rate_hz = meta["sample_rate_hz"]
    if sample_rate_hz is None:
        raise ConfigError("sample_rate_hz missing (argument or metadata)")
    if groups is not None:  # the body is parsed only once the groups fit
        check_groups(groups)
        width = len(read_header(path))
        if sum(groups) != width:
            raise ConfigError(f"groups ({groups[0]},{groups[1]}) do not cover the {width} channels")

    header, values = _read_table(path)
    data = values[None] if block_length is None else segment_rows(values, int(block_length))
    return MtsDataset(data=data, sample_rate_hz=float(sample_rate_hz),
                      p=None if groups is None else int(groups[0]),
                      channel_names=tuple(header), labels=labels)


def save_csv(dataset: MtsDataset, path, metadata_path=None) -> None:
    """Export a dataset to the same CSV dialect (blocks concatenated).

    Values use shortest round-trip decimal formatting so a reload yields
    bit-identical float64 data.  When ``metadata_path`` is given, block
    length and labels are written there as JSON.
    """
    rows = dataset.data.reshape(-1, dataset.data.shape[2])
    write_table(path, dataset.channel_names, (row.tolist() for row in rows))
    if metadata_path is not None:
        meta = {"block_length": dataset.n_samples, "sample_rate_hz": dataset.sample_rate_hz}
        if dataset.labels is not None:
            meta["labels"] = list(dataset.labels)
        write_json(metadata_path, meta)


def select_regions(
    dataset: MtsDataset, region_map: RegionMap, pair: tuple[str, str]
) -> MtsDataset:
    """Restrict a dataset to two regions and split it there: X = first region, Y = second.

    Channel order is deterministic: region-A channels in map order, then
    region-B channels.  Block structure and labels are preserved: the
    result holds a copy of the chosen columns of ``dataset.data``.
    """
    RegionMap(regions=region_map.regions, pairs=(pair,))  # two different, known regions
    a, b = pair
    names = dataset.channel_names
    wanted = region_map.regions[a] + region_map.regions[b]
    missing = [ch for ch in wanted if ch not in names]
    if missing:
        raise ConfigError(f"channels named in regions but absent from dataset: {missing}")
    return replace(dataset, data=dataset.data[:, :, [names.index(ch) for ch in wanted]],
                   p=len(region_map.regions[a]), channel_names=wanted)

"""Core data model and file formats: blocks, datasets, region maps, CSV and JSON.

A recording is a long multichannel matrix cut into fixed-length blocks.
Within a block the series is treated as stationary; every downstream
estimator works block by block.  Channels are split into an X group
(first ``p`` columns) and a Y group (next ``q`` columns).
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .exceptions import ConfigError, DataError

__all__ = [
    "MtsBlock",
    "MtsDataset",
    "RegionMap",
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


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class MtsBlock:
    """One locally-stationary block: a T x (p+q) signal matrix.

    Attributes
    ----------
    data : ndarray, shape (T, p+q)
        Signal amplitudes; the first ``p`` columns are the X group.
    p, q : int
        Channel counts of the X and Y groups.
    sample_rate_hz : float
        Sampling rate in Hz.
    channel_names : tuple of str, optional
        Length p+q when present.
    label : int, optional
        Ground-truth class tag used by the evaluation protocol.
    """

    data: np.ndarray
    p: int
    q: int
    sample_rate_hz: float
    channel_names: Optional[tuple[str, ...]] = None
    label: Optional[int] = None

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise DataError(f"need p >= 1 and q >= 1, got p={self.p}, q={self.q}")
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise DataError(f"block data must be 2-D, got shape {data.shape}")
        if data.shape[0] < 2:
            raise DataError(f"block needs at least 2 samples, got {data.shape[0]}")
        if data.shape[1] != self.p + self.q:
            raise DataError(
                f"block has {data.shape[1]} channels but p+q={self.p + self.q}"
            )
        if not np.isfinite(data).all():
            t, c = np.argwhere(~np.isfinite(data))[0]
            raise DataError(f"non-finite value at sample {t}, channel {c}")
        if self.sample_rate_hz <= 0:
            raise DataError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if self.channel_names is not None:
            names = tuple(self.channel_names)
            if len(names) != self.p + self.q:
                raise DataError(
                    f"channel_names has {len(names)} entries, expected {self.p + self.q}"
                )
            object.__setattr__(self, "channel_names", names)
        object.__setattr__(self, "data", _readonly(data))

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.p + self.q

    @property
    def x(self) -> np.ndarray:
        return self.data[:, : self.p]

    @property
    def y(self) -> np.ndarray:
        return self.data[:, self.p :]

    def with_data(self, data: np.ndarray) -> "MtsBlock":
        """Same metadata, new signal matrix of identical shape."""
        return MtsBlock(
            data=data,
            p=self.p,
            q=self.q,
            sample_rate_hz=self.sample_rate_hz,
            channel_names=self.channel_names,
            label=self.label,
        )


@dataclass(frozen=True)
class MtsDataset:
    """An ordered collection of blocks sharing channel layout, rate and length."""

    blocks: tuple[MtsBlock, ...]

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise DataError("dataset needs at least one block")
        first = blocks[0]
        for i, b in enumerate(blocks):
            if (b.p, b.q) != (first.p, first.q):
                raise DataError(f"block {i} has (p,q)=({b.p},{b.q}), expected ({first.p},{first.q})")
            if b.sample_rate_hz != first.sample_rate_hz:
                raise DataError(f"block {i} sample rate differs")
            if b.n_samples != first.n_samples:
                raise DataError(f"block {i} has {b.n_samples} samples, expected {first.n_samples}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def p(self) -> int:
        return self.blocks[0].p

    @property
    def q(self) -> int:
        return self.blocks[0].q

    @property
    def sample_rate_hz(self) -> float:
        return self.blocks[0].sample_rate_hz

    @property
    def channel_names(self) -> Optional[tuple[str, ...]]:
        return self.blocks[0].channel_names

    @property
    def labels(self) -> Optional[tuple[Optional[int], ...]]:
        labs = tuple(b.label for b in self.blocks)
        return None if all(v is None for v in labs) else labs

    def with_blocks(self, blocks: Sequence[MtsBlock]) -> "MtsDataset":
        return MtsDataset(blocks=tuple(blocks))


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
        regions = {str(k): tuple(v) for k, v in self.regions.items()}
        if not regions:
            raise ConfigError("region map has no regions")
        seen: dict[str, str] = {}
        for name, chans in regions.items():
            if not chans:
                raise ConfigError(f"region {name!r} is empty")
            for ch in chans:
                if ch in seen:
                    raise ConfigError(
                        f"channel {ch!r} appears in regions {seen[ch]!r} and {name!r}"
                    )
                seen[ch] = name
        pairs = tuple((str(a), str(b)) for a, b in self.pairs)
        for a, b in pairs:
            if a not in regions or b not in regions:
                raise ConfigError(f"pair ({a!r}, {b!r}) names an unknown region")
            if a == b:
                raise ConfigError(f"pair regions must differ, got ({a!r}, {a!r})")
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "pairs", pairs)


# ---------------------------------------------------------------------------
# file formats: every CSV and JSON file of the package is read and written here
# ---------------------------------------------------------------------------

def format_float(v: float) -> str:
    """Canonical decimal formatting: shortest round-trip repr of a float.

    Guarantees load -> save -> load reproduces float64 values bit for bit.
    """
    return repr(float(v))


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
    """Parsed JSON file; a missing or malformed file is a ``ConfigError``."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None


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


def write_table(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header line, then one CSV line per row.

    Floats are written by ``format_float`` and None as an empty cell.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            ["" if v is None else format_float(v) if isinstance(v, float) else v for v in row]
            for row in rows
        )


def _open_csv(path):
    if not Path(path).exists():
        raise ConfigError(f"input file not found: {path}")
    return open(path, newline="", encoding="utf-8")


def _header(reader, path) -> list[str]:
    try:
        return [h.strip() for h in next(reader)]
    except StopIteration:
        raise DataError(f"{path}: empty file") from None


def read_header(path) -> list[str]:
    """The column names of a CSV file."""
    with _open_csv(path) as fh:
        return _header(csv.reader(fh), path)


def _parse_cell(text: str, path, row: int, col: int, block_id: bool) -> float:
    try:
        v = float(text)
    except ValueError:
        raise DataError(f"{path}: non-numeric cell at row {row}, column {col}: {text!r}") from None
    if not math.isfinite(v):
        raise DataError(f"{path}: non-finite value at row {row}, column {col}: {text!r}")
    if block_id and not (v.is_integer() and v >= 0):
        raise DataError(f"{path}: bad block id at row {row}, column {col}: {text!r} "
                        "(need an integer >= 0)")
    return v


def _read_table(path, skip: Sequence[str] = (), block_ids: Sequence[str] = ()):
    """Header and float body of a CSV file, every parsed cell checked.

    Columns named in ``skip`` are neither parsed nor returned; those in
    ``block_ids`` must hold integers >= 0.  A ragged row, a non-numeric
    or non-finite cell, a bad block id, or an empty body raises a
    ``DataError`` naming the row (from 1, after the header) and column
    (from 0).
    """
    rows: list[list[float]] = []
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        header = _header(reader, path)
        cols = [(c, h in block_ids) for c, h in enumerate(header) if h not in skip]
        for r, line in enumerate(reader, start=1):
            if not line:
                continue
            if len(line) != len(header):
                raise DataError(f"{path}: row {r}: expected {len(header)} cells, got {len(line)}")
            rows.append([_parse_cell(line[c], path, r, c, is_id) for c, is_id in cols])
    if not rows:
        raise DataError(f"{path}: no data rows")
    return [header[c] for c, _ in cols], np.asarray(rows, dtype=np.float64)


def read_block_table(path, prefix: str) -> tuple[np.ndarray, list[int]]:
    """The ``prefix`` columns and the integer ``block_id`` column of a per-block table.

    A text ``band`` column (features.csv) is skipped by name.
    """
    header, values = _read_table(path, skip=("band",), block_ids=("block_id",))
    cols = [c for c, h in enumerate(header) if h.startswith(prefix)]
    if "block_id" not in header or not cols:
        raise DataError(f"{path}: needs a block_id column and {prefix}* columns, got {header}")
    return values[:, cols], [int(v) for v in values[:, header.index("block_id")]]


def segment_rows(values: np.ndarray, block_length: int) -> list[np.ndarray]:
    """Cut a row matrix into floor(rows / block_length) full blocks.

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
    return [values[i * block_length : (i + 1) * block_length] for i in range(n)]


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
    body.  Blocks come from a fixed ``block_length``; without one the
    whole file is a single block.  Channel groups come from
    ``groups=(p, q)``: the first p columns are X, the next q are Y.
    ``select_regions`` regroups by channel name.

    An optional JSON metadata sidecar may supply ``block_length``,
    ``labels`` and ``sample_rate_hz``; explicit keyword arguments win
    over the sidecar.
    """
    meta = {} if metadata_path is None else read_json(metadata_path, "metadata file")
    if block_length is None:
        block_length = meta.get("block_length")
    labels = meta.get("labels")
    if labels is not None:
        check_labels(labels, metadata_path)
    if sample_rate_hz is None:
        sample_rate_hz = meta.get("sample_rate_hz")
    if sample_rate_hz is None:
        raise ConfigError("sample_rate_hz missing (argument or metadata)")

    header, values = _read_table(path)
    parts = [values] if block_length is None else segment_rows(values, int(block_length))

    if groups is None:
        raise ConfigError("groups=(p,q) is required")
    p, q = int(groups[0]), int(groups[1])
    if p + q != len(header):
        raise ConfigError(f"groups ({p},{q}) do not cover the {len(header)} channels")

    if labels is not None and len(labels) != len(parts):
        raise ConfigError(f"{len(labels)} labels for {len(parts)} blocks")

    blocks = [
        MtsBlock(
            data=part,
            p=p,
            q=q,
            sample_rate_hz=float(sample_rate_hz),
            channel_names=tuple(header),
            label=None if labels is None else labels[i],
        )
        for i, part in enumerate(parts)
    ]
    return MtsDataset(blocks=tuple(blocks))


def save_csv(dataset: MtsDataset, path, metadata_path=None) -> None:
    """Export a dataset to the same CSV dialect (blocks concatenated).

    Values use shortest round-trip decimal formatting so a reload yields
    bit-identical float64 data.  When ``metadata_path`` is given, block
    length and labels are written there as JSON.
    """
    names = dataset.channel_names or tuple(
        f"ch{i}" for i in range(dataset.p + dataset.q)
    )
    write_table(path, names, (row for block in dataset.blocks for row in block.data))
    if metadata_path is not None:
        meta = {
            "block_length": dataset.blocks[0].n_samples,
            "sample_rate_hz": dataset.sample_rate_hz,
        }
        labels = dataset.labels
        if labels is not None:
            meta["labels"] = list(labels)
        write_json(metadata_path, meta)


def select_regions(
    dataset: MtsDataset, region_map: RegionMap, pair: tuple[str, str]
) -> MtsDataset:
    """Restrict a dataset to two regions: X = first region, Y = second.

    Channel order is deterministic: region-A channels in map order, then
    region-B channels.  Block structure and labels are preserved.
    """
    RegionMap(regions=region_map.regions, pairs=(pair,))  # two different, known regions
    a, b = pair
    names = dataset.channel_names
    if names is None:
        raise ConfigError("dataset has no channel names; cannot select regions")
    wanted = list(region_map.regions[a]) + list(region_map.regions[b])
    missing = [ch for ch in wanted if ch not in names]
    if missing:
        raise ConfigError(f"channels named in regions but absent from dataset: {missing}")
    cols = [names.index(ch) for ch in wanted]
    p, q = len(region_map.regions[a]), len(region_map.regions[b])
    return dataset.with_blocks([
        MtsBlock(
            data=block.data[:, cols],
            p=p,
            q=q,
            sample_rate_hz=block.sample_rate_hz,
            channel_names=tuple(wanted),
            label=block.label,
        )
        for block in dataset.blocks
    ])

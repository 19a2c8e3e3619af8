"""Turn fuzzy memberships into assignments and score them against truth.

Two assignment rules: the 0.7-cutoff rule used by the simulation
protocol (sub-cutoff blocks keep a FUZZY status) and the plain
maximum-membership rule used on labeled recordings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exceptions import ConfigError

__all__ = [
    "AssignmentReport",
    "RandReport",
    "SWITCHING",
    "assign",
    "rand_index",
    "simulation_accuracy",
]

# truth tag for blocks that alternate between both regimes
SWITCHING = 2


@dataclass(frozen=True)
class AssignmentReport:
    """Per-block cluster ids (None = FUZZY) under one assignment rule."""

    assignments: tuple[Optional[int], ...]
    fuzzy_fraction: float

    def hard_labels(self, fuzzy_label: int) -> np.ndarray:
        """Assignments as integers with FUZZY mapped to ``fuzzy_label``."""
        return np.array(
            [fuzzy_label if a is None else a for a in self.assignments], dtype=int
        )


@dataclass(frozen=True)
class RandReport:
    """Simulation-protocol scores of a two-cluster partition."""

    accuracy: float
    rand_index_pure: float
    rand_index_all: float
    n_pure: int
    n_switching: int
    n_switching_correct: int
    fuzzy_fraction: float
    label_map: tuple[int, int]


def assign(
    memberships,
    rule: str = "threshold",
    threshold: float = 0.7,
) -> AssignmentReport:
    """Assign each block to a cluster, or to FUZZY under the cutoff rule.

    ``memberships`` is the (B, C) membership matrix.  ``threshold``
    rule: block -> argmax cluster iff its maximum membership strictly
    exceeds the cutoff, else FUZZY (equality counts as FUZZY).  ``max``
    rule: always argmax, ties to the lower cluster index.
    """
    e = np.asarray(memberships, dtype=np.float64)
    n, c = e.shape
    arg = e.argmax(axis=1)  # argmax takes the lower index on ties
    if rule == "max":
        assignments = tuple(int(a) for a in arg)
    elif rule == "threshold":
        if not (1.0 / c < threshold < 1.0):
            raise ConfigError(
                f"threshold must lie in (1/C, 1) = ({1.0 / c:.3f}, 1), got {threshold}"
            )
        assignments = tuple(
            int(a) if t > threshold else None for a, t in zip(arg, e.max(axis=1))
        )
    else:
        raise ConfigError(f"unknown rule {rule!r}; use 'threshold' or 'max'")
    return AssignmentReport(
        assignments=assignments, fuzzy_fraction=sum(a is None for a in assignments) / n
    )


def _agreement(table: np.ndarray) -> float:
    """Rand index of a contingency table: agreeing pairs over all pairs."""
    def pairs(counts) -> int:
        return int((counts * (counts - 1) // 2).sum())

    n = int(table.sum())
    total = n * (n - 1) // 2
    return (total - pairs(table.sum(axis=1)) - pairs(table.sum(axis=0)) + 2 * pairs(table)) / total


def rand_index(pred: Sequence[int], truth: Sequence[int]) -> float:
    """Fraction of object pairs on which two labelings agree.

    A pair agrees when both labelings co-cluster it or both separate it;
    the score is label-permutation invariant by construction.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ConfigError(f"label shapes differ: {pred.shape} vs {truth.shape}")
    if pred.size < 2:
        raise ConfigError(f"need at least 2 objects, got {pred.size}")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return _agreement(table)


def simulation_accuracy(
    memberships,
    kinds: Sequence[int],
    threshold: float = 0.7,
) -> RandReport:
    """Score (B, 2) memberships against pure-0/pure-1/switching truth.

    A pure block counts correct when the cutoff rule assigns it to its
    own cluster (after the accuracy-maximizing 2-permutation match of
    cluster ids to truth); a switching block counts correct when it is
    flagged FUZZY.  Two pair-agreement scores are reported side by side:
    over the pure subset only, and over all blocks with FUZZY/switching
    treated as a third label.
    """
    n, c = np.shape(memberships)
    if c != 2:
        raise ConfigError(f"simulation protocol is binary; partition has C={c}")
    kinds = np.asarray(kinds, dtype=int)
    if kinds.shape[0] != n:
        raise ConfigError(f"{kinds.shape[0]} truth entries for {n} blocks")
    bad = set(kinds.tolist()) - {0, 1, SWITCHING}  # np.unique would import numpy.ma
    if bad:
        raise ConfigError(f"truth kinds must be 0, 1 or {SWITCHING}, got extra {sorted(bad)}")

    report = assign(memberships, rule="threshold", threshold=threshold)
    # FUZZY takes the switching tag (free, as C = 2); every score below
    # comes from the (assigned, truth) contingency table
    hard = report.hard_labels(fuzzy_label=SWITCHING)
    table = np.bincount(3 * hard + kinds, minlength=9).reshape(3, 3)
    kept = int(np.trace(table))
    swapped = int(table[1, 0] + table[0, 1] + table[2, 2])
    pure = table[:, :SWITCHING]
    n_pure = int(pure.sum())
    return RandReport(
        accuracy=max(kept, swapped) / len(kinds),
        rand_index_pure=_agreement(pure) if n_pure >= 2 else 1.0,
        rand_index_all=_agreement(table) if len(kinds) >= 2 else 1.0,
        n_pure=n_pure,
        n_switching=len(kinds) - n_pure,
        n_switching_correct=int(table[SWITCHING, SWITCHING]),
        fuzzy_fraction=report.fuzzy_fraction,
        label_map=(1, 0) if swapped > kept else (0, 1),
    )

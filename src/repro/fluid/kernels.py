"""Array kernels for the fluid engine's per-period flow math.

The only module under ``src/`` that imports numpy, and it is imported
inside :class:`~repro.fluid.engine.FluidEngine`'s constructor, not at
module import time: the DES path imports ``repro.fluid`` too and must
not pay numpy's start-up time and resident memory (``docs/SCALE.md``).

:func:`largest_remainder` and :func:`bounded_apportion` are the array
forms of the list functions in :mod:`repro.globalqos.waterfill`, which
stay the reference they are tested against
(``tests/properties/test_prop_apportion.py``, and engine against engine
in ``tests/fluid/test_differential.py``).  The engine's claim phase is
their one caller: a water-fill over hundreds of flows costs a few array
ops per freeze-and-redistribute round instead of a Python step per bin
(``docs/SCALE.md``).  They return the same integers, not merely close
ones, because every step is the same IEEE operation in the same order:

- the quota denominator is the builtin ``sum`` over the weights in
  index order (``ndarray.sum`` adds pairwise, and Python >= 3.12's
  ``sum`` is compensated — neither is the list form's value for
  arbitrary floats);
- ``astype(int64)`` truncates like ``int()``;
- a stable argsort on ``alloc - quota`` breaks ties by lowest index,
  like the list form's ``(key, index)`` sort.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.common.errors import ConfigError


def largest_remainder(total: int, weights: np.ndarray) -> np.ndarray:
    """Hamilton apportionment of ``total`` over float ``weights``.

    All-zero weights degrade to an even split; the int64 result sums to
    ``total`` exactly.
    """
    if total < 0:
        raise ConfigError(f"total must be >= 0, got {total}")
    if weights.size == 0:
        raise ConfigError("weights must be non-empty")
    if (weights < 0).any():
        raise ConfigError("weights must be non-negative")
    denom = sum(weights.tolist())
    if denom <= 0:
        weights = np.ones(weights.size)
        denom = float(weights.size)
    quotas = float(total) * weights / denom
    alloc = quotas.astype(np.int64)
    leftover = total - int(alloc.sum())
    if leftover:
        order = np.argsort(alloc - quotas, kind="stable")
        alloc[order[:leftover]] += 1
    return alloc


def bounded_apportion(
    total: int, weights: np.ndarray, bounds: np.ndarray
) -> Optional[np.ndarray]:
    """Largest-remainder apportionment under per-bin upper bounds.

    Bins that would exceed their bound are frozen at it and the excess
    re-apportioned over the rest, round by round.  Returns ``None``
    when ``total`` exceeds ``bounds.sum()`` (no feasible assignment).
    ``weights`` is float64, ``bounds`` int64; neither is modified.
    """
    if bounds.size != weights.size:
        raise ConfigError("weights and bounds must have equal length")
    if total > int(bounds.sum()):
        return None
    alloc = np.zeros(weights.size, dtype=np.int64)
    active = np.arange(weights.size)
    remaining = total
    while remaining > 0:
        part = largest_remainder(remaining, weights[active])
        room = bounds[active] - alloc[active]
        over = part > room
        alloc[active] += np.where(over, room, part)
        if not over.any():
            break
        # Saturated bins drop out; a bin that took its full quota keeps
        # its weight for the redistribution.
        remaining = int((part - room)[over].sum())
        active = active[~over]
    return alloc

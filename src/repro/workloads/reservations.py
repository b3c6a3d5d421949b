"""Spatial reservation/demand distributions (paper Secs. III-B/C).

All functions return a list of per-client rates in ops/second that sum
(up to rounding) to ``total``:

- **uniform** — every client gets the same share (Fig. 8(a), Fig. 9(a)).
- **zipf groups** — clients are split into groups, group weights follow
  a Zipf law with exponent 0.6, and clients within a group share the
  group's reservation equally (Fig. 9(b) and onwards).
- **spike** — a few high-reservation clients and many low ones, given
  explicitly (Fig. 8(b,c), Fig. 13: 3 x 285 K + 7 x 80 K).
"""

from __future__ import annotations

from typing import List

from repro.common.errors import ConfigError


def uniform_distribution(total: float, num_clients: int) -> List[int]:
    """Split ``total`` ops/s equally among ``num_clients``."""
    if num_clients < 1:
        raise ConfigError(f"num_clients must be >= 1, got {num_clients}")
    if total < 0:
        raise ConfigError(f"total must be >= 0, got {total}")
    share = int(round(total / num_clients))
    return [share] * num_clients


def zipf_group_distribution(
    total: float,
    num_clients: int,
    num_groups: int = 5,
    exponent: float = 0.6,
) -> List[int]:
    """The paper's Zipf reservation distribution.

    ``num_clients`` must divide evenly into ``num_groups``; group ``g``
    (1-based) carries weight ``g**-exponent`` and splits it equally
    between its members.  With the paper's 10 clients / 5 groups /
    exponent 0.6, the first group's clients get the largest reservation.
    """
    if num_clients < 1:
        raise ConfigError(f"num_clients must be >= 1, got {num_clients}")
    if num_groups < 1:
        raise ConfigError(f"num_groups must be >= 1, got {num_groups}")
    if num_clients % num_groups != 0:
        raise ConfigError(
            f"{num_clients} clients do not divide into {num_groups} groups"
        )
    if exponent < 0:
        raise ConfigError(f"exponent must be >= 0, got {exponent}")
    group_size = num_clients // num_groups
    weights = [1.0 / (g**exponent) for g in range(1, num_groups + 1)]
    weight_sum = sum(weights)
    out: List[int] = []
    for g in range(num_groups):
        per_client = total * weights[g] / weight_sum / group_size
        out.extend([int(round(per_client))] * group_size)
    return out


def spike_distribution(
    num_clients: int,
    high_value: float,
    low_value: float,
    high_count: int = 3,
) -> List[int]:
    """``high_count`` clients at ``high_value`` ops/s, the rest at
    ``low_value`` (the paper's spike demand/reservation shape)."""
    if not 0 <= high_count <= num_clients:
        raise ConfigError(
            f"high_count {high_count} outside [0, {num_clients}]"
        )
    if high_value < low_value:
        raise ConfigError(
            f"spike requires high_value >= low_value "
            f"({high_value} < {low_value})"
        )
    return [int(round(high_value))] * high_count + [
        int(round(low_value))
    ] * (num_clients - high_count)

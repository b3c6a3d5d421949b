"""Admission control (the paper's Definition 2).

Two feasibility constraints guard every admission:

- **aggregate**: the saturated system capacity must cover all admitted
  reservations, ``sum(R_i) <= T * C_G``;
- **local**: one-sided clients individually saturate far below the
  server (400 vs 1570 KIOPS), so each reservation must be completable
  by a single client, ``R_i <= T * C_L``.

:func:`local_violation` implements the runtime form
``R_i - N_i(t) > (T - t) * C_L`` used by tests and the Fig. 8(b)
analysis: even an admitted client can become locally infeasible if the
schedule leaves too much of its reservation for the tail of the period.
"""

from __future__ import annotations

from typing import Dict

from repro.common.errors import AdmissionError


class AdmissionController:
    """Tracks admitted reservations against the two capacity limits."""

    def __init__(self, global_tokens_per_period: int, local_tokens_per_period: int):
        if global_tokens_per_period <= 0:
            raise AdmissionError(
                f"global capacity must be positive, got {global_tokens_per_period}"
            )
        if local_tokens_per_period <= 0:
            raise AdmissionError(
                f"local capacity must be positive, got {local_tokens_per_period}"
            )
        self.global_capacity = global_tokens_per_period
        self.local_capacity = local_tokens_per_period
        self.admitted: Dict[int, int] = {}
        # Sum of ``admitted``, kept by admit/resize/release so that an
        # admission costs O(1), not a pass over every admitted client.
        self._total = 0

    @property
    def total_reserved(self) -> int:
        """Sum of admitted reservations (tokens/period)."""
        return self._total

    @property
    def headroom(self) -> int:
        """Unreserved aggregate capacity (tokens/period)."""
        return self.global_capacity - self.total_reserved

    def admit(self, client_id: int, reservation: int) -> None:
        """Admit ``client_id`` with ``reservation`` tokens/period.

        Raises :class:`AdmissionError` on either capacity violation or a
        duplicate admission.
        """
        if client_id in self.admitted:
            raise AdmissionError(f"client {client_id} is already admitted")
        if reservation < 0:
            raise AdmissionError(f"reservation must be >= 0, got {reservation}")
        if reservation > self.local_capacity:
            raise AdmissionError(
                f"local capacity violation: reservation {reservation} exceeds "
                f"per-client capacity {self.local_capacity}"
            )
        if self._total + reservation > self.global_capacity:
            raise AdmissionError(
                f"aggregate capacity violation: {self._total} + "
                f"{reservation} exceeds {self.global_capacity}"
            )
        self.admitted[client_id] = reservation
        self._total += reservation

    def resize(self, client_id: int, reservation: int) -> None:
        """Replace an admitted client's reservation (Definition 2 still
        enforced against the *new* value).

        Used by the global coordinator's mid-period split updates: the
        client stays admitted throughout, only its share moves.  Raises
        :class:`AdmissionError` when the new value violates either
        capacity constraint, leaving the old reservation in force.
        """
        if client_id not in self.admitted:
            raise AdmissionError(f"client {client_id} is not admitted")
        if reservation < 0:
            raise AdmissionError(f"reservation must be >= 0, got {reservation}")
        if reservation > self.local_capacity:
            raise AdmissionError(
                f"local capacity violation: reservation {reservation} exceeds "
                f"per-client capacity {self.local_capacity}"
            )
        others = self._total - self.admitted[client_id]
        if others + reservation > self.global_capacity:
            raise AdmissionError(
                f"aggregate capacity violation: {others} + {reservation} "
                f"exceeds {self.global_capacity}"
            )
        self.admitted[client_id] = reservation
        self._total = others + reservation

    def release(self, client_id: int) -> None:
        """Remove a departed client's reservation."""
        if client_id not in self.admitted:
            raise AdmissionError(f"client {client_id} is not admitted")
        self._total -= self.admitted.pop(client_id)


def local_violation(
    reservation: int,
    completed: int,
    elapsed: float,
    period: float,
    local_rate: float,
) -> bool:
    """Definition 2's runtime check.

    True when the residual reservation can no longer be completed at the
    single-client rate: ``R_i - N_i(t) > (T - t) * C_L``.
    """
    if not 0 <= elapsed <= period:
        raise AdmissionError(f"elapsed {elapsed} outside [0, {period}]")
    residual = max(0, reservation - completed)
    return residual > (period - elapsed) * local_rate

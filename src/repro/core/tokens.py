"""Client-side token accounting (pure logic, no I/O).

Separated from the engine so the invariants — the entitlement bound
``X(t) = R_i - rho_i(t)``, the clamp ``xi_res <= ceil(X)``, and batched
global-token arithmetic — are directly unit- and property-testable.
"""

from __future__ import annotations

import math

from repro.common.errors import QoSError


class ClientTokenState:
    """Token state of one client within one QoS period.

    ``xi_res``
        Remaining reservation tokens; consumed one per I/O.
    ``x_bound``
        The decaying entitlement bound X.  The engine applies
        :meth:`decay` once per management interval (replayed when the
        state is next read); reservation tokens above ``ceil(X)``
        are yielded back (they show up as a smaller reported residual,
        which the monitor's conversion turns into global tokens).
    ``local_global``
        Global tokens fetched in a batch and not yet spent.
    """

    def __init__(self, reservation: int, period: float):
        if reservation < 0:
            raise QoSError(f"reservation must be >= 0, got {reservation}")
        if period <= 0:
            raise QoSError(f"period must be positive, got {period}")
        self.reservation = reservation
        self.period = period
        self.rate = reservation / period  # r_i
        self.xi_res = 0
        self.x_bound = 0.0
        self.local_global = 0
        self.yielded_tokens = 0  # reservation tokens given up (telemetry)

    def start_period(self, tokens: int) -> None:
        """Begin a period: fresh tokens *replace* any leftover state."""
        if tokens < 0:
            raise QoSError(f"token grant must be >= 0, got {tokens}")
        self.xi_res = tokens
        self.x_bound = float(tokens)
        self.local_global = 0
        self.yielded_tokens = 0

    # ------------------------------------------------------------------
    def decay(self, dt: float) -> int:
        """One management tick: reduce X by ``r_i * dt``, clamp ``xi_res``.

        Returns how many reservation tokens were yielded this tick.
        """
        if dt < 0:
            raise QoSError(f"negative decay interval: {dt}")
        self.x_bound = max(0.0, self.x_bound - self.rate * dt)
        # The epsilon absorbs float accumulation across ticks so that an
        # exact bound (e.g. X = 20 after 600 ticks) does not ceil to 21.
        bound = math.ceil(self.x_bound - 1e-9)
        if self.xi_res > bound:
            yielded = self.xi_res - bound
            self.xi_res = bound
            self.yielded_tokens += yielded
            return yielded
        return 0

    # ------------------------------------------------------------------
    def try_consume(self) -> bool:
        """Take one token (reservation first, then local global)."""
        if self.xi_res > 0:
            self.xi_res -= 1
            return True
        if self.local_global > 0:
            self.local_global -= 1
            return True
        return False

    @property
    def needs_global(self) -> bool:
        """True when the next I/O must be backed by the global pool."""
        return self.xi_res <= 0 and self.local_global <= 0

    def grant_from_pool(self, prior_pool_value: int, batch: int) -> int:
        """Account a batched FAA result.

        ``prior_pool_value`` is the (signed) pool value the FAA
        returned; the client keeps ``min(batch, max(prior, 0))`` tokens
        — a non-positive prior value means the unreserved capacity was
        already consumed and the client got nothing.
        """
        if batch < 1:
            raise QoSError(f"batch must be >= 1, got {batch}")
        granted = min(batch, max(prior_pool_value, 0))
        self.local_global += granted
        return granted

    @property
    def residual(self) -> int:
        """The residual reservation the client reports to the monitor."""
        return max(0, self.xi_res)

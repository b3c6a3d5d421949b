"""The declarative QoS policy document model.

A :class:`QoSPolicy` is a typed, versioned, JSON-round-trippable
description of *what the cluster promises*: client classes with
reservations, limits, bursts, tiers, and replication factors — the
knobs that today live scattered through scenario constructors.  The
document is the unit of distribution: the CLI validates and diffs it,
:mod:`repro.policy.store` commits it next to the code, and
:class:`~repro.policy.service.PolicyService` pushes it over the
control path with the fencing discipline of the split protocol.

Versioning happens on two axes, deliberately separate:

- ``version`` is the *document revision* — the hot-swap fencing
  number.  A consumer applies revision N only if it is strictly newer
  than what it already holds, exactly like ``(term, epoch)`` fencing
  on split updates.
- ``schema_version`` is the *format generation*.  v1 carries the core
  triple (reservation / limit / burst); v2 adds ``tier`` and
  ``replication``.  Consumers negotiate a supported range and the
  service down-converts (dropping advisory fields) or rejects with
  :class:`PolicyVersionError` when a required field cannot survive the
  conversion (a replication factor > 1 is a durability *requirement*,
  not advice — it never down-converts silently).

Everything validates eagerly and deterministically: a committed
document that parses is a document every consumer can hold.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Tuple

from repro.common.codec import from_payload, to_payload
from repro.common.errors import ConfigError

#: The newest document format this build writes (and reads).
POLICY_SCHEMA_VERSION = 2

#: Formats :func:`QoSPolicy.from_dict` still reads.  v1 documents
#: (core reservation/limit/burst only) load with default tier and
#: replication — byte-for-byte their historical meaning.
SUPPORTED_SCHEMA_VERSIONS = (1, POLICY_SCHEMA_VERSION)

#: Fields that exist only from schema v2 on, with the v1-implied
#: defaults a down-conversion resets them to.
V2_FIELDS = {"tier": "standard", "replication": 1}


class PolicyError(ConfigError):
    """A policy document or operation is invalid."""


class PolicyVersionError(PolicyError):
    """A schema version outside the supported / negotiated range."""

    def __init__(self, message: str, offered: int = 0,
                 supported: Tuple[int, int] = (0, 0)):
        super().__init__(message)
        self.offered = offered
        self.supported = supported


def _offered(version) -> int:
    """An unsupported ``schema_version`` as the int a
    :class:`PolicyVersionError` reports: 0 when it is not an int."""
    if isinstance(version, int) and not isinstance(version, bool):
        return version
    return 0


def _with_defaults(cls, payload, what: str) -> dict:
    """``payload`` with ``cls``'s declared field defaults filled in.
    Documents are hand-written: a key naming no field is a typo."""
    if not isinstance(payload, dict):
        raise PolicyError(f"{what} must be a JSON object, got {payload!r}")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(payload) - {f.name for f in fields})
    if unknown:
        raise PolicyError(f"{what} has unknown fields {unknown}")
    defaults = {f.name: f.default for f in fields
                if f.default is not dataclasses.MISSING}
    return {**defaults, **payload}


@dataclasses.dataclass(frozen=True)
class ClientClass:
    """One class of clients a policy covers.

    ``reservation_ops`` / ``limit_ops`` / ``burst_ops`` are absolute
    ops/s; ``limit_factor`` / ``burst_factor`` express the same thing
    relative to the class reservation (for shape documents where the
    absolute reservation is scenario-assigned).  Absolute and relative
    forms of the same knob are mutually exclusive.  ``tier`` and
    ``replication`` are schema-v2 fields: the tier is advisory (it
    names the service class for rollups and dashboards), the
    replication factor is a durability requirement.
    """

    name: str
    count: int = 1
    reservation_ops: float = 0.0
    limit_ops: Optional[float] = None
    limit_factor: Optional[float] = None
    burst_ops: float = 0.0
    burst_factor: Optional[float] = None
    tier: str = "standard"
    replication: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise PolicyError("client class needs a non-empty name")
        if self.count < 1:
            raise PolicyError(
                f"class {self.name!r}: count must be >= 1, got {self.count}"
            )
        if self.reservation_ops < 0:
            raise PolicyError(
                f"class {self.name!r}: reservation_ops must be >= 0"
            )
        if self.limit_ops is not None and self.limit_factor is not None:
            raise PolicyError(
                f"class {self.name!r}: limit_ops and limit_factor are "
                "mutually exclusive"
            )
        if self.limit_ops is not None and self.limit_ops < self.reservation_ops:
            raise PolicyError(
                f"class {self.name!r}: limit_ops {self.limit_ops} below "
                f"reservation_ops {self.reservation_ops} (a limit can "
                "never contradict the reservation it coexists with)"
            )
        if self.limit_factor is not None and self.limit_factor < 1.0:
            raise PolicyError(
                f"class {self.name!r}: limit_factor must be >= 1.0"
            )
        if self.burst_ops < 0:
            raise PolicyError(
                f"class {self.name!r}: burst_ops must be >= 0"
            )
        if self.burst_factor is not None and self.burst_factor < 0:
            raise PolicyError(
                f"class {self.name!r}: burst_factor must be >= 0"
            )
        if not self.tier:
            raise PolicyError(f"class {self.name!r}: tier must be non-empty")
        if self.replication < 1:
            raise PolicyError(
                f"class {self.name!r}: replication must be >= 1, "
                f"got {self.replication}"
            )

    # ------------------------------------------------------------------
    def limit_for(self, reservation_ops: float) -> Optional[float]:
        """The effective limit (ops/s) for a member at ``reservation_ops``."""
        if self.limit_ops is not None:
            return self.limit_ops
        if self.limit_factor is not None:
            return self.limit_factor * reservation_ops
        return None

    def to_dict(self, schema_version: int = POLICY_SCHEMA_VERSION) -> dict:
        payload = to_payload(self)
        if schema_version < 2:
            for name in V2_FIELDS:
                del payload[name]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ClientClass":
        return from_payload(cls, _with_defaults(cls, payload,
                                                "client class"))


@dataclasses.dataclass(frozen=True)
class QoSPolicy:
    """One versioned policy document (see module docstring).

    ``classes`` enumerate covered client classes in binding order; the
    optional ``reserved_fraction`` / ``distribution`` pair describes
    *generated* reservation shapes (the paper presets draw their
    per-client tables from a named distribution over a capacity
    fraction rather than an explicit class list).
    """

    name: str
    version: int = 1
    schema_version: int = POLICY_SCHEMA_VERSION
    description: str = ""
    classes: Tuple[ClientClass, ...] = ()
    reserved_fraction: Optional[float] = None
    distribution: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise PolicyError("policy needs a non-empty name")
        if self.version < 1:
            raise PolicyError(
                f"policy {self.name!r}: version must be >= 1, "
                f"got {self.version}"
            )
        if self.schema_version not in SUPPORTED_SCHEMA_VERSIONS:
            raise PolicyVersionError(
                f"policy {self.name!r}: unsupported schema version "
                f"{self.schema_version!r} (this build reads "
                f"{SUPPORTED_SCHEMA_VERSIONS})",
                offered=_offered(self.schema_version),
                supported=(SUPPORTED_SCHEMA_VERSIONS[0],
                           SUPPORTED_SCHEMA_VERSIONS[-1]),
            )
        seen = set()
        for cls in self.classes:
            if cls.name in seen:
                raise PolicyError(
                    f"policy {self.name!r}: duplicate class {cls.name!r}"
                )
            seen.add(cls.name)
        if self.schema_version < 2:
            for cls in self.classes:
                if cls.tier != V2_FIELDS["tier"] or (
                        cls.replication != V2_FIELDS["replication"]):
                    raise PolicyError(
                        f"policy {self.name!r}: class {cls.name!r} uses "
                        "schema-v2 fields (tier/replication) in a v1 "
                        "document"
                    )
        if self.reserved_fraction is not None and not (
                0.0 < self.reserved_fraction <= 1.0):
            raise PolicyError(
                f"policy {self.name!r}: reserved_fraction must be in "
                f"(0, 1], got {self.reserved_fraction}"
            )
        if not self.classes and self.reserved_fraction is None:
            raise PolicyError(
                f"policy {self.name!r}: needs classes or a "
                "reserved_fraction shape"
            )

    # ------------------------------------------------------------------
    def class_named(self, name: str) -> ClientClass:
        for cls in self.classes:
            if cls.name == name:
                return cls
        known = [c.name for c in self.classes]
        raise PolicyError(
            f"policy {self.name!r} has no class {name!r} (know {known})"
        )

    def num_clients(self) -> int:
        return sum(cls.count for cls in self.classes)

    def pool_fraction(self) -> float:
        """Capacity fraction left to the global pool, exact to 10 dp.

        ``1.0 - reserved_fraction`` in bare float arithmetic turns 0.9
        into 0.09999999999999998; rounding restores the literal the
        scenario code historically used, keeping derived workloads
        bit-for-bit.
        """
        if self.reserved_fraction is None:
            raise PolicyError(
                f"policy {self.name!r} has no reserved_fraction shape"
            )
        return round(1.0 - self.reserved_fraction, 10)

    def reservations_ops(self) -> List[float]:
        """Per-client reservation table, classes expanded in order."""
        out: List[float] = []
        for cls in self.classes:
            out.extend([cls.reservation_ops] * cls.count)
        return out

    # ------------------------------------------------------------------
    def downconvert(self, target_version: int) -> "QoSPolicy":
        """This document as an older schema generation.

        Advisory v2 fields (``tier``) drop to their v1 defaults;
        required ones (``replication`` > 1) cannot be expressed in v1
        and raise :class:`PolicyVersionError` instead of being lost
        silently.
        """
        if target_version not in SUPPORTED_SCHEMA_VERSIONS:
            raise PolicyVersionError(
                f"cannot convert policy {self.name!r} to unknown schema "
                f"version {target_version!r}",
                offered=self.schema_version,
                supported=(SUPPORTED_SCHEMA_VERSIONS[0],
                           SUPPORTED_SCHEMA_VERSIONS[-1]),
            )
        if target_version >= self.schema_version:
            return self
        demanding = [cls.name for cls in self.classes if cls.replication > 1]
        if demanding:
            raise PolicyVersionError(
                f"policy {self.name!r} cannot down-convert to schema v1: "
                f"classes {demanding} require replication > 1",
                offered=self.schema_version,
                supported=(target_version, target_version),
            )
        return dataclasses.replace(
            self,
            schema_version=target_version,
            classes=tuple(
                dataclasses.replace(cls, tier=V2_FIELDS["tier"],
                                    replication=V2_FIELDS["replication"])
                for cls in self.classes
            ),
        )

    def diff(self, other: "QoSPolicy") -> List[str]:
        """Human-readable field-level differences, ``self`` -> ``other``."""
        lines: List[str] = []
        for field in ("name", "version", "schema_version",
                      "reserved_fraction", "distribution"):
            mine, theirs = getattr(self, field), getattr(other, field)
            if mine != theirs:
                lines.append(f"{field}: {mine!r} -> {theirs!r}")
        mine_by_name: Dict[str, ClientClass] = {
            c.name: c for c in self.classes
        }
        theirs_by_name: Dict[str, ClientClass] = {
            c.name: c for c in other.classes
        }
        for name in sorted(set(mine_by_name) | set(theirs_by_name)):
            a, b = mine_by_name.get(name), theirs_by_name.get(name)
            if a is None:
                lines.append(f"class {name}: added")
                continue
            if b is None:
                lines.append(f"class {name}: removed")
                continue
            for field in ("count", "reservation_ops", "limit_ops",
                          "limit_factor", "burst_ops", "burst_factor",
                          "tier", "replication"):
                va, vb = getattr(a, field), getattr(b, field)
                if va != vb:
                    lines.append(f"class {name}.{field}: {va!r} -> {vb!r}")
        return lines

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        payload = to_payload(self)
        payload["classes"] = [
            cls.to_dict(self.schema_version) for cls in self.classes
        ]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "QoSPolicy":
        version = payload.get("schema_version")
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            raise PolicyVersionError(
                f"unsupported policy schema version {version!r} "
                f"(this build reads {SUPPORTED_SCHEMA_VERSIONS})",
                offered=_offered(version),
                supported=(SUPPORTED_SCHEMA_VERSIONS[0],
                           SUPPORTED_SCHEMA_VERSIONS[-1]),
            )
        payload = _with_defaults(cls, payload, "policy document")
        payload["classes"] = [
            _with_defaults(ClientClass, c, "client class")
            for c in payload["classes"]
        ]
        return from_payload(cls, payload)

    def to_json(self, indent: Optional[int] = None) -> str:
        if indent is None:
            return json.dumps(self.to_dict(), sort_keys=True,
                              separators=(",", ":"))
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "QoSPolicy":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise PolicyError(f"policy document is not JSON: {exc}")
        if not isinstance(payload, dict):
            raise PolicyError("policy document must be a JSON object")
        return cls.from_dict(payload)


@dataclasses.dataclass(frozen=True)
class PolicyBinding:
    """A policy bound to concrete subjects (tenants/groups/clients).

    ``subjects`` is an ordered ``(subject_name, class_name)`` map; each
    class name must exist in the policy.  :func:`bind_in_order` builds
    the common case — classes expanded by count over an ordered subject
    list (client C1..Cn, or tenant T1..Tk).
    """

    policy: QoSPolicy
    subjects: Tuple[Tuple[str, str], ...]

    def __post_init__(self) -> None:
        known = {cls.name for cls in self.policy.classes}
        seen = set()
        for subject, class_name in self.subjects:
            if class_name not in known:
                raise PolicyError(
                    f"binding for {subject!r} names unknown class "
                    f"{class_name!r} (policy {self.policy.name!r} has "
                    f"{sorted(known)})"
                )
            if subject in seen:
                raise PolicyError(f"subject {subject!r} bound twice")
            seen.add(subject)

    def class_of(self, subject: str) -> ClientClass:
        for name, class_name in self.subjects:
            if name == subject:
                return self.policy.class_named(class_name)
        raise PolicyError(
            f"subject {subject!r} is not bound by policy "
            f"{self.policy.name!r}"
        )

    def items(self) -> Tuple[Tuple[str, ClientClass], ...]:
        return tuple(
            (subject, self.policy.class_named(class_name))
            for subject, class_name in self.subjects
        )


def bind_in_order(policy: QoSPolicy, subject_names) -> PolicyBinding:
    """Bind classes (expanded by ``count``, in order) to named subjects."""
    names = list(subject_names)
    expanded: List[str] = []
    for cls in policy.classes:
        expanded.extend([cls.name] * cls.count)
    if len(expanded) != len(names):
        raise PolicyError(
            f"policy {policy.name!r} covers {len(expanded)} clients, "
            f"got {len(names)} subjects to bind"
        )
    return PolicyBinding(
        policy=policy,
        subjects=tuple(zip(names, expanded)),
    )

"""The one document format (repro.common.codec) across all 13 classes.

Every class's payload keys are exactly its field names, so a new field
cannot be dropped from the JSON form silently; every field is required
on decode unless the document class fills a default for it on purpose
(the two v1 fault-plan families, the declared defaults of hand-written
policy documents).
"""

import dataclasses
import json
import math

import pytest

from repro.common.codec import from_payload, to_payload
from repro.common.errors import ConfigError
from repro.common.types import OpType
from repro.faults.plan import (
    Brownout,
    CrashWindow,
    DelayRule,
    DropRule,
    FaultPlan,
    OpFilter,
    PartitionRule,
    QPCloseFault,
    SlowdownRule,
)
from repro.hunt.space import FaultGene, ScenarioSpec
from repro.policy.document import ClientClass, QoSPolicy

WHERE = OpFilter(src="C1", dst="server", control_only=True,
                 opcodes=(OpType.FETCH_ADD, OpType.READ), start=1.0)
DROP = DropRule(0.5, WHERE, label="storm")
DELAY = DelayRule(0.2, delay=1e-4, jitter=5e-5, where=WHERE, label="spike")
BROWNOUT = Brownout("server", 0.5, 1.5, 0.25)
PARTITION = PartitionRule("coord", "coord2", 0.004, 0.016, label="cut")
SLOWDOWN = SlowdownRule("server2", 0.02, 0.028, 3)
CLOSE = QPCloseFault("C1", "server", 2)
CRASH = CrashWindow("C2", 1.0)
PLAN = FaultPlan(
    drops=(DROP,), delays=(DELAY,), brownouts=(BROWNOUT,),
    qp_closes=(CLOSE,), crashes=(CRASH,), partitions=(PARTITION,),
    slowdowns=(SLOWDOWN,), drop_fail_after=1e-4,
)
GENE = FaultGene("client-crash", start=1.5, duration=0.75, client=1,
                 rate=0.3, factor=0.4, permanent=True)
SPEC = ScenarioSpec(num_clients=4, limit_factor=1.5, periods=9,
                    faults=(GENE,), tenant_count=2, policy_version=1)
GOLD = ClientClass(name="gold", count=2, reservation_ops=100.0,
                   limit_ops=250.0, burst_ops=10.0, burst_factor=0.5,
                   tier="premium", replication=2)
POLICY = QoSPolicy(name="tiers", version=3, description="two tiers",
                   classes=(GOLD,), reserved_fraction=0.8,
                   distribution="zipf")


def _codec(obj):
    return (to_payload, lambda payload: from_payload(type(obj), payload))


def _document(obj):
    return (type(obj).to_dict, type(obj).from_dict)


# (sample, encode, decode, stamped with schema_version)
CASES = [
    (WHERE, *_codec(WHERE), False),
    (DROP, *_codec(DROP), False),
    (DELAY, *_codec(DELAY), False),
    (BROWNOUT, *_codec(BROWNOUT), False),
    (PARTITION, *_codec(PARTITION), False),
    (SLOWDOWN, *_codec(SLOWDOWN), False),
    (CLOSE, *_codec(CLOSE), False),
    (CRASH, *_codec(CRASH), False),
    (PLAN, *_document(PLAN), True),
    (GENE, *_codec(GENE), False),
    (SPEC, *_document(SPEC), True),
    (GOLD, *_document(GOLD), False),
    (POLICY, *_document(POLICY), False),
]
IDS = [type(case[0]).__name__ for case in CASES]

# Fields a document decodes to a default when the key is absent.
FILLED = {
    FaultPlan: {"partitions", "slowdowns"},
    ClientClass: {f.name for f in dataclasses.fields(ClientClass)
                  if f.default is not dataclasses.MISSING},
    QoSPolicy: {f.name for f in dataclasses.fields(QoSPolicy)
                if f.default is not dataclasses.MISSING
                and f.name != "schema_version"},
}


@pytest.mark.parametrize("sample,encode,decode,stamped", CASES, ids=IDS)
def test_payload_keys_are_the_field_names(sample, encode, decode, stamped):
    payload = encode(sample)
    fields = {f.name for f in dataclasses.fields(sample)}
    assert set(payload) == fields | ({"schema_version"} if stamped else set())
    assert decode(json.loads(json.dumps(payload))) == sample


@pytest.mark.parametrize("sample,encode,decode,stamped", CASES, ids=IDS)
def test_every_field_is_required_or_filled(sample, encode, decode, stamped):
    cls = type(sample)
    keys = list(encode(sample))
    assert keys
    for key in keys:
        payload = encode(sample)
        del payload[key]
        if key == "schema_version":
            with pytest.raises(ConfigError, match="schema version"):
                decode(payload)
        elif key in FILLED.get(cls, ()):
            default = cls.__dataclass_fields__[key].default
            assert getattr(decode(payload), key) == default, key
        else:
            with pytest.raises(ConfigError, match=(
                    f"{cls.__name__} payload is missing '{key}'")):
                decode(payload)


def test_unknown_keys_are_ignored():
    payload = dict(to_payload(BROWNOUT), note="hand-added")
    assert from_payload(Brownout, payload) == BROWNOUT


def test_string_inf_stays_a_string():
    plan = FaultPlan(
        crashes=(CrashWindow("inf", 1.0),),
        drops=(DropRule(0.5, OpFilter(start=2.0), label="inf"),),
    )
    payload = plan.to_dict()
    assert payload["crashes"][0] == {"host": "inf", "start": 1.0,
                                     "end": "inf"}
    back = FaultPlan.from_json(plan.to_json())
    assert back == plan
    assert back.crashes[0].host == "inf"
    assert back.drops[0].label == "inf"
    assert back.crashes[0].end == math.inf
    assert back.drops[0].where.end == math.inf


def test_optional_float_reads_inf():
    policy = dataclasses.replace(POLICY, classes=(
        dataclasses.replace(GOLD, limit_ops=math.inf),
    ))
    back = QoSPolicy.from_json(policy.to_json())
    assert back == policy
    assert back.classes[0].limit_ops == math.inf


def test_unknown_enum_name_is_a_config_error():
    payload = to_payload(WHERE)
    payload["opcodes"] = ["READ", "TELEPORT"]
    with pytest.raises(ConfigError, match="TELEPORT"):
        from_payload(OpFilter, payload)


# (field, wrong value, the type the message names)
WRONG_TYPES = [
    ("periods", "8", "int"),
    ("num_clients", True, "int"),
    ("num_clients", 4.0, "int"),
    ("fluid_mode", 1, "bool"),
    ("distribution", 3, "str"),
    ("reserved_fraction", "0.7", "float"),
    ("reserved_fraction", False, "float"),
    ("limit_factor", "1.5", "float"),
    ("faults", "none", "a list"),
]


@pytest.mark.parametrize("key,value,kind", WRONG_TYPES)
def test_wrong_scalar_type_is_a_config_error(key, value, kind):
    """A bool is not an int, a string is not a number: the field is
    named before the value reaches ``__post_init__``."""
    payload = dict(SPEC.to_dict(), **{key: value})
    with pytest.raises(ConfigError, match=(
            rf"^ScenarioSpec\.{key} must be {kind}, got {value!r}$")):
        ScenarioSpec.from_dict(payload)


def test_nested_field_types_are_checked():
    payload = SPEC.to_dict()
    payload["faults"] = [dict(payload["faults"][0], client="1")]
    with pytest.raises(ConfigError, match=r"^FaultGene\.client must be int"):
        ScenarioSpec.from_dict(payload)
    payload = POLICY.to_dict()
    payload["classes"] = [dict(payload["classes"][0], replication=2.0)]
    with pytest.raises(ConfigError, match="ClientClass.replication"):
        QoSPolicy.from_dict(payload)


def test_an_int_is_a_float_and_stays_an_int():
    """Float fields take ints, and keep them ints, so a document that
    wrote ``3`` serializes back to ``3``."""
    payload = to_payload(SLOWDOWN)
    assert payload["factor"] == 3 and type(payload["factor"]) is int
    back = from_payload(SlowdownRule, json.loads(json.dumps(payload)))
    assert back == SLOWDOWN and type(back.factor) is int
    assert json.dumps(to_payload(back)) == json.dumps(payload)

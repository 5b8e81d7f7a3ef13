"""Differential oracle for the preset tables in ``providers``.

``ORACLE_MAKERS`` is the earlier hand-written form of every shipped preset:
one constructor call per preset, each field spelled out, with the private
price-table helpers it called copied alongside.  The tables must resolve
every name to an equal ``TargetProfile``, in the same order and with the
same error for an unknown name.
"""

import json
import math
from importlib import resources

import pytest

from qbench.costing import CreditBilling, GateRateBilling, Money, PerShotBilling
from qbench.providers import (
    PRESET_NAMES,
    UNAVAILABLE,
    AlwaysSchedule,
    DailyWindowSchedule,
    QueueModel,
    RecurringOutageSchedule,
    TargetProfile,
    target_profile,
)
from qbench.simulator import GlobalDepolarizing
from qbench.transpiler import EFFICIENT, REDUNDANT, default_gate_limit

ORACLE_PRESET_NAMES = (
    "aria1-aws",
    "aria1-azure",
    "aria2-aws",
    "aria2-azure",
    "forte1-aws",
    "garnet-aws",
    "h1-azure",
    "h2-azure",
    "aria1-emulator",
    "forte1-emulator",
    "h1-emulator",
    "h2-emulator",
)


def _price_table() -> dict:
    text = resources.files("qbench.data").joinpath("price_table.json").read_text("utf-8")
    return json.loads(text)


def _ionq_gate_rate() -> GateRateBilling:
    p = _price_table()["gate_rate"]["ionq"]
    return GateRateBilling(
        usd_1q=Money.from_usd(p["usd_1q"]),
        usd_2q=Money.from_usd(p["usd_2q"]),
        minimum=Money.from_usd(p["min_job"]),
        minimum_mitigated=Money.from_usd(p["min_job_error_mitigated"]),
    )


def _credit_rate(tier: str) -> CreditBilling:
    p = _price_table()["credit_rate"]["quantinuum"]
    return CreditBilling(usd_per_credit=Money.from_usd(p[f"usd_per_credit_{tier}"]))


def _per_shot(device: str) -> PerShotBilling:
    p = _price_table()["per_shot"]
    return PerShotBilling(
        per_task=Money.from_usd(p["per_task"]), per_shot=Money.from_usd(p[device])
    )


_FREE = PerShotBilling(per_task=Money.zero(), per_shot=Money.zero())

_AWS_QUEUE = QueueModel(mu=math.log(300.0), sigma=1.0)
_AZURE_QUEUE = QueueModel(mu=math.log(600.0), sigma=1.2, predictor_bias=0.65)
_SLOW_QUEUE = QueueModel(mu=math.log(3600.0), sigma=1.3, predictor_bias=0.65)
_EMULATOR_QUEUE = QueueModel(mu=math.log(10.0), sigma=0.5)


ORACLE_MAKERS = {
    "aria1-aws": lambda: TargetProfile(
        name="aria1-aws",
        cloud="SimAWS",
        qubits=25,
        gate_profile=REDUNDANT,
        billing=_per_shot("aria"),
        noise=GlobalDepolarizing(0.9995),
        queue=_AWS_QUEUE,
        schedule=RecurringOutageSchedule(period=36 * 3600, outage_start=30 * 3600, outage_len=6 * 3600),
        gate_limit=default_gate_limit(),
        exposes_queue_position=True,
    ),
    "aria1-azure": lambda: TargetProfile(
        name="aria1-azure",
        cloud="SimAzure",
        qubits=25,
        gate_profile=EFFICIENT,
        billing=_ionq_gate_rate(),
        noise=GlobalDepolarizing(0.9995),
        queue=_AZURE_QUEUE,
        schedule=RecurringOutageSchedule(period=36 * 3600, outage_start=24 * 3600, outage_len=12 * 3600),
        exposes_avg_queue_time=True,
    ),
    "aria2-aws": lambda: TargetProfile(
        name="aria2-aws",
        cloud="SimAWS",
        qubits=25,
        gate_profile=REDUNDANT,
        billing=_per_shot("aria"),
        noise=GlobalDepolarizing(0.9995),
        queue=_AWS_QUEUE,
        schedule=AlwaysSchedule(UNAVAILABLE),
        gate_limit=default_gate_limit(),
        exposes_queue_position=True,
    ),
    "aria2-azure": lambda: TargetProfile(
        name="aria2-azure",
        cloud="SimAzure",
        qubits=25,
        gate_profile=EFFICIENT,
        billing=_ionq_gate_rate(),
        noise=GlobalDepolarizing(0.9995),
        queue=_AZURE_QUEUE,
        schedule=AlwaysSchedule(UNAVAILABLE),
        exposes_avg_queue_time=True,
    ),
    "forte1-aws": lambda: TargetProfile(
        name="forte1-aws",
        cloud="SimAWS",
        qubits=36,
        gate_profile=REDUNDANT,
        billing=_per_shot("forte"),
        noise=GlobalDepolarizing(0.9993),
        queue=_AWS_QUEUE,
        schedule=AlwaysSchedule(),
        gate_limit=default_gate_limit(20, 22),
        exposes_queue_position=True,
    ),
    "garnet-aws": lambda: TargetProfile(
        name="garnet-aws",
        cloud="SimAWS",
        qubits=20,
        gate_profile=REDUNDANT,
        billing=_per_shot("garnet"),
        noise=GlobalDepolarizing(0.97),
        queue=_AWS_QUEUE,
        schedule=AlwaysSchedule(),
        exposes_queue_position=True,
    ),
    "h1-azure": lambda: TargetProfile(
        name="h1-azure",
        cloud="SimAzure",
        qubits=20,
        gate_profile=EFFICIENT,
        billing=_credit_rate("hardware"),
        noise=GlobalDepolarizing(0.9998),
        queue=_SLOW_QUEUE,
        schedule=DailyWindowSchedule(start=17 * 3600, end=2 * 3600),
        exposes_avg_queue_time=True,
    ),
    "h2-azure": lambda: TargetProfile(
        name="h2-azure",
        cloud="SimAzure",
        qubits=56,
        gate_profile=EFFICIENT,
        billing=_credit_rate("hardware"),
        noise=GlobalDepolarizing(0.9999),
        queue=_SLOW_QUEUE,
        schedule=AlwaysSchedule(),
        exposes_avg_queue_time=True,
    ),
    "aria1-emulator": lambda: TargetProfile(
        name="aria1-emulator",
        cloud="SimAzure",
        qubits=25,
        gate_profile=EFFICIENT,
        billing=_FREE,
        noise=GlobalDepolarizing(0.9995),
        queue=_EMULATOR_QUEUE,
        schedule=AlwaysSchedule(),
        exposes_avg_queue_time=True,
    ),
    "forte1-emulator": lambda: TargetProfile(
        name="forte1-emulator",
        cloud="SimAzure",
        qubits=36,
        gate_profile=EFFICIENT,
        billing=_FREE,
        noise=GlobalDepolarizing(0.9993),
        queue=_EMULATOR_QUEUE,
        schedule=AlwaysSchedule(),
        exposes_avg_queue_time=True,
    ),
    "h1-emulator": lambda: TargetProfile(
        name="h1-emulator",
        cloud="SimAzure",
        qubits=20,
        gate_profile=EFFICIENT,
        billing=_credit_rate("emulator"),
        noise=GlobalDepolarizing(0.9998),
        queue=_EMULATOR_QUEUE,
        schedule=AlwaysSchedule(),
        exposes_avg_queue_time=True,
    ),
    "h2-emulator": lambda: TargetProfile(
        name="h2-emulator",
        cloud="SimAzure",
        qubits=56,
        gate_profile=EFFICIENT,
        billing=_credit_rate("emulator"),
        noise=GlobalDepolarizing(0.9999),
        queue=_EMULATOR_QUEUE,
        schedule=AlwaysSchedule(),
        exposes_avg_queue_time=True,
    ),
}


def test_oracle_covers_every_name():
    assert tuple(ORACLE_MAKERS) == ORACLE_PRESET_NAMES


@pytest.mark.parametrize("name", ORACLE_PRESET_NAMES)
def test_preset_matches_oracle(name):
    got = target_profile(name)
    want = ORACLE_MAKERS[name]()
    assert got == want
    assert got.gate_profile is want.gate_profile  # the shared module profile, not a copy


def test_preset_names_keep_their_order():
    assert PRESET_NAMES == ORACLE_PRESET_NAMES


def test_unknown_preset_message_is_unchanged():
    with pytest.raises(KeyError) as err:
        target_profile("aria3-aws")
    assert err.value.args[0] == (
        f"unknown target preset 'aria3-aws'; known: {sorted(ORACLE_PRESET_NAMES)}"
    )

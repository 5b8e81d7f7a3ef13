"""Differential oracle for the preset tables in ``providers``.

``ORACLE_MAKERS`` is the earlier hand-written form of every shipped preset:
one constructor call per preset, each field spelled out, with each published
price written here as a literal rather than read from ``price_table.json``,
so a typo in the data file fails the comparison.  The tables must resolve
every name to an equal ``TargetProfile``, in the same order and with the
same error for an unknown name.  ``ORACLE_CLOUD_FACTS`` spells out what each
preset's cloud fixes: its lowering and the one queue figure it publishes.
"""

import json
import math
from importlib import resources

import pytest

from qbench import providers
from qbench.costing import CreditBilling, GateRateBilling, Money, PerShotBilling
from qbench.providers import (
    PRESET_NAMES,
    UNAVAILABLE,
    AlwaysSchedule,
    DailyWindowSchedule,
    QueueModel,
    RecurringOutageSchedule,
    TargetProfile,
    default_gate_limit,
    target_profile,
)
from qbench.simulator import GlobalDepolarizing
from qbench.transpiler import EFFICIENT, REDUNDANT

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


_IONQ_GATE_RATE = GateRateBilling(
    usd_1q=Money.from_usd("0.00022"),
    usd_2q=Money.from_usd("0.000975"),
    minimum=Money.from_usd("12.42"),
    minimum_mitigated=Money.from_usd("97.50"),
)
_HQC_HARDWARE = CreditBilling(usd_per_credit=Money.from_usd("9.7941"))
_HQC_EMULATOR = CreditBilling(usd_per_credit=Money.from_usd("0.1088"))


def _per_shot(usd: str) -> PerShotBilling:
    return PerShotBilling(per_task=Money.from_usd("0.30"), per_shot=Money.from_usd(usd))


_FREE = PerShotBilling(per_task=Money(0), per_shot=Money(0))

_AWS_QUEUE = QueueModel(mu=math.log(300.0), sigma=1.0)
_AZURE_QUEUE = QueueModel(mu=math.log(600.0), sigma=1.2, predictor_bias=0.65)
_SLOW_QUEUE = QueueModel(mu=math.log(3600.0), sigma=1.3, predictor_bias=0.65)
_EMULATOR_QUEUE = QueueModel(mu=math.log(10.0), sigma=0.5)


ORACLE_MAKERS = {
    "aria1-aws": lambda: TargetProfile(
        name="aria1-aws",
        cloud="SimAWS",
        qubits=25,
        billing=_per_shot("0.03"),
        noise=GlobalDepolarizing(0.9995),
        queue=_AWS_QUEUE,
        schedule=RecurringOutageSchedule(period=36 * 3600, outage_start=30 * 3600, outage_len=6 * 3600),
        gate_limit=default_gate_limit(16, 18),
    ),
    "aria1-azure": lambda: TargetProfile(
        name="aria1-azure",
        cloud="SimAzure",
        qubits=25,
        billing=_IONQ_GATE_RATE,
        noise=GlobalDepolarizing(0.9995),
        queue=_AZURE_QUEUE,
        schedule=RecurringOutageSchedule(period=36 * 3600, outage_start=24 * 3600, outage_len=12 * 3600),
    ),
    "aria2-aws": lambda: TargetProfile(
        name="aria2-aws",
        cloud="SimAWS",
        qubits=25,
        billing=_per_shot("0.03"),
        noise=GlobalDepolarizing(0.9995),
        queue=_AWS_QUEUE,
        schedule=AlwaysSchedule(UNAVAILABLE),
        gate_limit=default_gate_limit(16, 18),
    ),
    "aria2-azure": lambda: TargetProfile(
        name="aria2-azure",
        cloud="SimAzure",
        qubits=25,
        billing=_IONQ_GATE_RATE,
        noise=GlobalDepolarizing(0.9995),
        queue=_AZURE_QUEUE,
        schedule=AlwaysSchedule(UNAVAILABLE),
    ),
    "forte1-aws": lambda: TargetProfile(
        name="forte1-aws",
        cloud="SimAWS",
        qubits=36,
        billing=_per_shot("0.08"),
        noise=GlobalDepolarizing(0.9993),
        queue=_AWS_QUEUE,
        schedule=AlwaysSchedule(),
        gate_limit=default_gate_limit(20, 22),
    ),
    "garnet-aws": lambda: TargetProfile(
        name="garnet-aws",
        cloud="SimAWS",
        qubits=20,
        billing=_per_shot("0.00145"),
        noise=GlobalDepolarizing(0.97),
        queue=_AWS_QUEUE,
        schedule=AlwaysSchedule(),
    ),
    "h1-azure": lambda: TargetProfile(
        name="h1-azure",
        cloud="SimAzure",
        qubits=20,
        billing=_HQC_HARDWARE,
        noise=GlobalDepolarizing(0.9998),
        queue=_SLOW_QUEUE,
        schedule=DailyWindowSchedule(start=17 * 3600, end=2 * 3600),
    ),
    "h2-azure": lambda: TargetProfile(
        name="h2-azure",
        cloud="SimAzure",
        qubits=56,
        billing=_HQC_HARDWARE,
        noise=GlobalDepolarizing(0.9999),
        queue=_SLOW_QUEUE,
        schedule=AlwaysSchedule(),
    ),
    "aria1-emulator": lambda: TargetProfile(
        name="aria1-emulator",
        cloud="SimAzure",
        qubits=25,
        billing=_FREE,
        noise=GlobalDepolarizing(0.9995),
        queue=_EMULATOR_QUEUE,
        schedule=AlwaysSchedule(),
    ),
    "forte1-emulator": lambda: TargetProfile(
        name="forte1-emulator",
        cloud="SimAzure",
        qubits=36,
        billing=_FREE,
        noise=GlobalDepolarizing(0.9993),
        queue=_EMULATOR_QUEUE,
        schedule=AlwaysSchedule(),
    ),
    "h1-emulator": lambda: TargetProfile(
        name="h1-emulator",
        cloud="SimAzure",
        qubits=20,
        billing=_HQC_EMULATOR,
        noise=GlobalDepolarizing(0.9998),
        queue=_EMULATOR_QUEUE,
        schedule=AlwaysSchedule(),
    ),
    "h2-emulator": lambda: TargetProfile(
        name="h2-emulator",
        cloud="SimAzure",
        qubits=56,
        billing=_HQC_EMULATOR,
        noise=GlobalDepolarizing(0.9999),
        queue=_EMULATOR_QUEUE,
        schedule=AlwaysSchedule(),
    ),
}


# preset: the lowering its cloud runs, publishes an average queue time,
# publishes a queue position
ORACLE_CLOUD_FACTS = {
    "aria1-aws": (REDUNDANT, False, True),
    "aria1-azure": (EFFICIENT, True, False),
    "aria2-aws": (REDUNDANT, False, True),
    "aria2-azure": (EFFICIENT, True, False),
    "forte1-aws": (REDUNDANT, False, True),
    "garnet-aws": (REDUNDANT, False, True),
    "h1-azure": (EFFICIENT, True, False),
    "h2-azure": (EFFICIENT, True, False),
    "aria1-emulator": (EFFICIENT, True, False),
    "forte1-emulator": (EFFICIENT, True, False),
    "h1-emulator": (EFFICIENT, True, False),
    "h2-emulator": (EFFICIENT, True, False),
}


def test_oracle_covers_every_name():
    assert tuple(ORACLE_MAKERS) == ORACLE_PRESET_NAMES
    assert tuple(ORACLE_CLOUD_FACTS) == ORACLE_PRESET_NAMES


@pytest.mark.parametrize("name", ORACLE_PRESET_NAMES)
def test_preset_matches_oracle(name):
    got = target_profile(name)
    want = ORACLE_MAKERS[name]()
    assert got == want
    assert got.gate_profile is want.gate_profile  # the shared module profile, not a copy


@pytest.mark.parametrize("name", ORACLE_PRESET_NAMES)
def test_preset_cloud_facts(name):
    got = target_profile(name)
    gate_profile, avg_wait, position = ORACLE_CLOUD_FACTS[name]
    assert got.gate_profile is gate_profile
    assert (got.exposes_avg_queue_time, got.exposes_queue_position) == (avg_wait, position)


def test_every_price_row_is_named_by_a_preset():
    text = resources.files("qbench.data").joinpath("price_table.json").read_text("utf-8")
    rows = json.loads(text)["bills"]
    named = {bill for _, _, bill, *_ in providers._PRESETS.values()}
    assert named == set(rows)


def test_preset_names_keep_their_order():
    assert PRESET_NAMES == ORACLE_PRESET_NAMES


def test_unknown_preset_message_is_unchanged():
    with pytest.raises(KeyError) as err:
        target_profile("aria3-aws")
    assert err.value.args[0] == (
        f"unknown target preset 'aria3-aws'; known: {sorted(ORACLE_PRESET_NAMES)}"
    )

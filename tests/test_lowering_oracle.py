"""Differential oracle for memoized lowering and the cached benchmark body.

``oracle_build_benchmark`` and ``oracle_transpile`` are the uncached
originals: the benchmark is built gate by gate for every call, and every
source gate is lowered again, with the native check and the census run over
the whole output.  The fast paths must match them byte for byte, with the
global phase equal to the bit.  ``oracle_census`` counts gate by gate; the
census a lowered circuit carries from its memo must equal it.
"""

import gc
import hashlib
import math

import pytest

from qbench import transpiler
from qbench.circuit import (
    Circuit,
    Gate,
    GateCensus,
    GateKind,
    _fourier_ladder,
    build_benchmark,
    census,
    circuit_to_json,
    inverse,
)
from qbench.cli import load_config, run_campaign
from qbench.providers import SimProvider, target_profile
from qbench.transpiler import (
    EFFICIENT,
    PROFILES,
    REDUNDANT,
    GateSetProfile,
    LoweringMemo,
    TranspileResult,
    lowering_memo,
    transpile,
)
from test_acceptance import CAMPAIGN_FIXTURE

# sha256 of the criterion-08 campaign store, from the unmemoized lowering
CRITERION_08_STORE_SHA256 = "7da4c2b494b44360e4a9f751e90acadedb6b6cce6b421d67b2da200a57f536c9"

WIDTHS = (1, 2, 3, 8, 13, 16, 22, 36, 56)


def oracle_build_benchmark(q, n, *, seed=None):
    gates = [Gate(GateKind.X, (i,)) for i in range(q) if (n >> i) & 1]
    ladder = _fourier_ladder(q)
    gates += ladder
    gates += [Gate(GateKind.P, (i,), 2 * math.pi * (1 << i) / (1 << q)) for i in range(q)]
    gates += inverse(ladder)
    meta = {"benchmark": "fourier_adder", "q": q, "n": n}
    if seed is not None:
        meta["seed"] = seed
    return Circuit(width=q, gates=tuple(gates), metadata=meta)


def oracle_census(circuit):
    n_1q = sum(1 for g in circuit.gates if g.arity == 1)
    return GateCensus(n_1q=n_1q, n_2q=len(circuit.gates) - n_1q)


def oracle_transpile(circuit, profile):
    lower = (
        transpiler._lower_efficient
        if profile.native_2q is GateKind.ZZ
        else transpiler._lower_redundant
    )
    gates = []
    phase = 0.0
    for g in circuit.gates:
        expansion, extra = lower(g)
        gates += expansion
        phase += extra
    for g in gates:
        native = profile.native_1q if g.arity == 1 else {profile.native_2q}
        if g.kind not in native:
            raise AssertionError(f"lowering emitted non-native {g.kind}")
    out = Circuit(
        width=circuit.width,
        gates=tuple(gates),
        metadata={**circuit.metadata, "profile": profile.name},
    )
    return TranspileResult(
        circuit=out,
        global_phase=phase % (2 * math.pi),
        source_census=oracle_census(circuit),
        census=oracle_census(out),
    )


def assert_same_lowering(got, want, want_json=None):
    assert circuit_to_json(got.circuit) == (want_json or circuit_to_json(want.circuit))
    assert got.global_phase.hex() == want.global_phase.hex()
    assert got.census == want.census
    assert got.source_census == want.source_census
    assert census(got.circuit) == oracle_census(got.circuit) == got.census


def inputs(q):
    mixed = 0x5A5A5A5A5A5A5A5A & ((1 << q) - 1)
    return sorted({0, 1, (1 << q) - 1, mixed})


@pytest.mark.parametrize("profile_name", sorted(PROFILES))
@pytest.mark.parametrize("q", WIDTHS)
def test_memoized_lowering_matches_oracle(q, profile_name):
    profile = PROFILES[profile_name]
    cases = []
    for n in inputs(q):
        circuit = build_benchmark(q, n, seed=n)
        source = oracle_build_benchmark(q, n, seed=n)
        assert circuit_to_json(circuit) == circuit_to_json(source)
        want = oracle_transpile(source, profile)
        cases.append((circuit, want, circuit_to_json(want.circuit)))
    # nothing holds a memo: each call lowers with one of its own
    assert profile not in transpiler._MEMOS
    for circuit, want, want_json in cases:
        assert_same_lowering(transpile(circuit, profile), want, want_json)
    # one held memo: every input after the first reuses its lowerings
    held = lowering_memo(profile)
    for circuit, want, want_json in cases:
        assert_same_lowering(transpile(circuit, profile), want, want_json)
    assert lowering_memo(profile) is held


@pytest.mark.parametrize("profile", [EFFICIENT, REDUNDANT], ids=lambda p: p.name)
def test_signed_zero_angles_keep_their_sign(profile):
    held = lowering_memo(profile)
    for gate in (
        Gate(GateKind.P, (0,), 0.0),
        Gate(GateKind.P, (0,), -0.0),
        Gate(GateKind.RZ, (0,), -0.0),
        # RZ(-0.0) and RZ(0.0) differ in one Euler angle's sign bit
        Gate(GateKind.RZ, (0,), 0.0),
    ):
        circuit = Circuit(1, (gate,))
        assert_same_lowering(transpile(circuit, profile), oracle_transpile(circuit, profile))
    assert len(held.entries) == 4


def test_providers_of_one_profile_share_a_memo():
    a, b = SimProvider(target_profile("aria1-aws")), SimProvider(target_profile("garnet-aws"))
    assert a._memo is b._memo is lowering_memo(REDUNDANT)
    assert SimProvider(target_profile("h2-azure"))._memo is lowering_memo(EFFICIENT)


def _criterion_08_store(tmp_path):
    config_path = tmp_path / "fixture.ini"
    config_path.write_text(CAMPAIGN_FIXTURE)
    store = tmp_path / "store.jsonl"
    run_campaign(load_config(str(config_path)), str(store))
    return store


def test_criterion_08_store_matches_unmemoized_lowering(tmp_path):
    store = _criterion_08_store(tmp_path)
    assert hashlib.sha256(store.read_bytes()).hexdigest() == CRITERION_08_STORE_SHA256


def test_no_memo_outlives_its_campaign(tmp_path):
    _criterion_08_store(tmp_path)
    gc.collect()
    assert list(transpiler._MEMOS.keys()) == []


def _shifted(rule, source):
    """``rule``, except that ``source`` lowers to gates one qubit higher."""

    def patched(g, *args):
        expansion, phase = rule(g, *args)
        if g != source:
            return expansion, phase
        return [Gate(e.kind, tuple(t + 1 for t in e.targets), e.theta) for e in expansion], phase

    return patched


@pytest.mark.parametrize("profile", [EFFICIENT, REDUNDANT], ids=lambda p: p.name)
def test_memo_refuses_an_expansion_on_a_foreign_qubit(profile, monkeypatch):
    rule = "_lower_efficient" if profile is EFFICIENT else "_lower_redundant"
    source = Gate(GateKind.P, (0,), 0.5)
    monkeypatch.setattr(transpiler, rule, _shifted(getattr(transpiler, rule), source))
    memo = LoweringMemo(profile)
    memo.lower(Gate(GateKind.P, (1,), 0.5))  # other gates lower as before
    with pytest.raises(AssertionError, match="foreign qubit"):
        memo.lower(source)
    # in range for the circuit, but not the source gate's qubit: refused all the same
    with pytest.raises(AssertionError, match="foreign qubit"):
        transpile(Circuit(2, (source,)), profile)
    with pytest.raises(AssertionError, match="foreign qubit"):
        transpile(Circuit(1, (source,)), profile)


@pytest.mark.parametrize("profile", [EFFICIENT, REDUNDANT], ids=lambda p: p.name)
def test_memo_refuses_a_non_native_expansion(profile, monkeypatch):
    rule = "_lower_efficient" if profile is EFFICIENT else "_lower_redundant"
    monkeypatch.setattr(transpiler, rule, lambda g, *args: ([Gate(GateKind.P, g.targets, 0.5)], 0.0))
    with pytest.raises(AssertionError, match="non-native"):
        LoweringMemo(profile).lower(Gate(GateKind.RZ, (0,), 0.5))


@pytest.mark.parametrize("kind", [GateKind.CP, GateKind.SWAP, GateKind.RZ])
def test_profile_refuses_a_native_2q_without_lowering_rules(kind):
    # the lowering rules are chosen by native_2q alone, so only ZZ and CX pass
    with pytest.raises(ValueError, match="native_2q must be zz or cx"):
        GateSetProfile("other", frozenset({GateKind.RZ}), kind)

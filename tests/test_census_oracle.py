"""``lowered_census`` against the lowerings it stands in for.

A campaign bills, gate-limits and samples noise from ``lowered_census``,
which never lowers a gate.  It must equal the census of ``transpile``'s
output and of the oracle lowering, for the benchmark at every width a preset
admits and for circuits of every gate kind at edge-case angles, in both
target orders.

A recognised benchmark's census is its width's cached body census plus one
X row per set input bit.  ``oracle_lowered_census`` is the path it replaced:
every gate counted by kind.  The two must agree on every benchmark, and a
circuit that only resembles a benchmark must still be counted gate by gate.
"""

import math
import random
from collections import Counter

import pytest

from qbench.circuit import (
    ONE_QUBIT_KINDS,
    PARAMETRIC_KINDS,
    Circuit,
    Gate,
    GateCensus,
    GateKind,
    _benchmark_body,
    _x_prefix,
    benchmark_input,
    build_benchmark,
    census,
    inverse,
    random_input,
)
from qbench.transpiler import EFFICIENT, REDUNDANT, _census_per_kind, lowered_census, transpile
from test_lowering_oracle import inputs, oracle_census, oracle_transpile

PROFILES = pytest.mark.parametrize("profile", [EFFICIENT, REDUNDANT], ids=lambda p: p.name)

ANGLES = (0.0, -0.0, math.pi, -math.pi, 1e-300, -1e-300)


def assert_census_matches_lowering(circuit, profile):
    want = oracle_census(oracle_transpile(circuit, profile).circuit)
    assert lowered_census(circuit, profile) == census(transpile(circuit, profile).circuit) == want


@PROFILES
@pytest.mark.parametrize("q", range(1, 57))
def test_benchmark_census_matches_lowering(q, profile):
    for n in inputs(q):
        assert_census_matches_lowering(build_benchmark(q, n), profile)


@PROFILES
@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
def test_every_kind_and_angle_matches_lowering(kind, profile):
    rng = random.Random(kind.value)
    angles = ANGLES + tuple(rng.uniform(-10, 10) for _ in range(5))
    for theta in angles if kind in PARAMETRIC_KINDS else (None,):
        for targets in ((0,), (1,)) if kind in ONE_QUBIT_KINDS else ((0, 1), (1, 0)):
            assert_census_matches_lowering(Circuit(2, (Gate(kind, targets, theta),)), profile)


@PROFILES
@pytest.mark.parametrize("seed", range(5))
def test_random_circuit_census_matches_lowering(seed, profile):
    rng = random.Random(seed)
    gates = []
    for _ in range(200):
        kind = rng.choice(list(GateKind))
        targets = tuple(rng.sample(range(5), 1 if kind in ONE_QUBIT_KINDS else 2))
        theta = None
        if kind in PARAMETRIC_KINDS:
            theta = rng.choice(ANGLES + (rng.uniform(-10, 10),))
        gates.append(Gate(kind, targets, theta))
    assert_census_matches_lowering(Circuit(5, tuple(gates)), profile)


def oracle_lowered_census(circuit, profile):
    """Every gate counted by kind, times what one gate of that kind lowers to."""
    table = _census_per_kind(profile)
    n_1q = n_2q = 0
    for kind, count in Counter(g.kind for g in circuit.gates).items():
        per_1q, per_2q = table[kind]
        n_1q += per_1q * count
        n_2q += per_2q * count
    return GateCensus(n_1q=n_1q, n_2q=n_2q)


@PROFILES
@pytest.mark.parametrize("q", range(1, 61))
def test_recognised_benchmark_census_matches_the_gate_count(q, profile):
    for n in sorted({0, (1 << q) - 1, random_input(q, q)}):
        circuit = build_benchmark(q, n)
        assert benchmark_input(circuit) == n
        assert lowered_census(circuit, profile) == oracle_lowered_census(circuit, profile)


def look_alikes(q):
    """Circuits carrying ``build_benchmark(q, n)``'s metadata whose gates are not its gates."""
    n = random_input(q, 5) | 1 | (1 << (q - 1))  # the lowest and highest bit set
    built = build_benchmark(q, n)
    prefix, body = _x_prefix(q, n), _benchmark_body(q)
    middle = len(body) // 2
    cases = {
        "duplicated-x": prefix[:1] + prefix + body,
        "dropped-body-gate": prefix + body[:middle] + body[middle + 1 :],
        "extra-trailing-gate": built.gates + (Gate(GateKind.H, (0,)),),
        "inverse-body": prefix + tuple(inverse(body)),
        "x-prefix-alone": prefix,
    }
    if len(prefix) > 1:
        cases["x-out-of-order"] = prefix[::-1] + body
    return {name: Circuit(q, gates, built.metadata) for name, gates in cases.items()}


def _x(i):
    return Gate(GateKind.X, (i,))


# n = 0b10101 at q = 5 is X(0) X(2) X(4); each prefix below differs from it
@pytest.mark.parametrize(
    "prefix",
    [
        (_x(2), _x(0), _x(4)),
        (_x(0), _x(2), _x(2), _x(4)),
        (_x(0), _x(2), _x(4), _x(0)),
        (_x(0), Gate(GateKind.RX, (2,), math.pi), _x(4)),
        (Gate(GateKind.H, (0,)),),
        (Gate(GateKind.CX, (0, 2)),),
    ],
    ids=["reordered", "repeated-qubit", "repeated-after-higher", "rx-pi", "h", "two-qubit"],
)
def test_prefix_not_of_rising_x_gates_is_refused(prefix):
    assert benchmark_input(Circuit(5, prefix + _benchmark_body(5))) is None


def test_equal_x_prefix_of_other_gate_objects_is_accepted():
    fresh = (Gate(GateKind.X, (0,)), Gate(GateKind.X, (2,)), Gate(GateKind.X, (4,)))
    built = _x_prefix(5, 0b10101)
    assert fresh == built and not any(a is b for a, b in zip(fresh, built))
    assert benchmark_input(Circuit(5, fresh + _benchmark_body(5))) == 0b10101


@PROFILES
@pytest.mark.parametrize("q", range(1, 13))
def test_look_alikes_are_counted_gate_by_gate(q, profile):
    for name, circuit in look_alikes(q).items():
        assert benchmark_input(circuit) is None, name
        want = transpile(circuit, profile).census
        assert lowered_census(circuit, profile) == oracle_lowered_census(circuit, profile) == want


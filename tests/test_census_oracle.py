"""``lowered_census`` against the lowerings it stands in for.

A campaign bills, gate-limits and samples noise from ``lowered_census``,
which counts source gates by kind and never lowers one.  It must equal the
census of ``transpile``'s output and of the oracle lowering, for the
benchmark at every width a preset admits and for circuits of every gate kind
at edge-case angles, in both target orders.
"""

import math
import random

import pytest

from qbench.circuit import (
    ONE_QUBIT_KINDS,
    PARAMETRIC_KINDS,
    Circuit,
    Gate,
    GateKind,
    build_benchmark,
    census,
)
from qbench.transpiler import EFFICIENT, REDUNDANT, lowered_census, transpile
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

"""``verify_equivalence`` against the per-probe loop it replaced.

The check now evolves its 9 probe states as one batch through each circuit.
Its overlaps may still differ from the loop's in the last few ulps: at widths
up to 3 BLAS multiplies a batch through another routine than one state, and
which routine sums an overlap can depend on the CPU.  So the two must agree
within 1e-12, far below the 1e-9 margin every caller tests against, and give
the same verdict at that margin.
"""

import math

import numpy as np
import pytest

from qbench.circuit import Circuit, Gate, GateKind, build_benchmark, random_input
from qbench.simulator import run_statevector, verify_equivalence
from qbench.transpiler import EFFICIENT, REDUNDANT, transpile
from test_kernel_oracle import random_circuit

FLOOR = 1 - 1e-9  # the verdict every caller draws: equivalent at or above it
TOL = 1e-12

PROFILES = pytest.mark.parametrize("profile", [EFFICIENT, REDUNDANT], ids=lambda p: p.name)


def oracle_verify_equivalence(a, b):
    """The per-probe loop: each probe prepended to both circuits, 18 statevectors."""
    if a.width != b.width:
        raise ValueError("circuits must have equal width")
    if a.width > 10:
        raise ValueError("equivalence check capped at 10 qubits")
    rng = np.random.default_rng(20240917)
    preps = [[]]
    for _ in range(8):
        prep = []
        for qubit in range(a.width):
            prep.append(Gate(GateKind.RY, (qubit,), float(rng.uniform(0, math.pi))))
            prep.append(Gate(GateKind.RZ, (qubit,), float(rng.uniform(0, 2 * math.pi))))
        preps.append(prep)
    worst = 1.0
    for prep in preps:
        sa = run_statevector(Circuit(a.width, tuple(prep) + a.gates))
        sb = run_statevector(Circuit(b.width, tuple(prep) + b.gates))
        worst = min(worst, abs(np.vdot(sa, sb)) ** 2)
    return worst


def assert_agrees(a, b):
    got, want = verify_equivalence(a, b), oracle_verify_equivalence(a, b)
    assert abs(got - want) <= TOL, (got, want)
    assert (got >= FLOOR) == (want >= FLOOR), (got, want)
    return got


@PROFILES
@pytest.mark.parametrize("q", range(1, 11))
def test_lowered_benchmarks_agree_with_oracle(q, profile):
    for n in sorted({0, (1 << q) - 1, random_input(q, 18)}):
        source = build_benchmark(q, n)
        assert assert_agrees(source, transpile(source, profile).circuit) >= FLOOR


@pytest.mark.parametrize("q", range(1, 11))
def test_random_circuits_agree_with_oracle(q):
    a = random_circuit(q, 3 * q + 10, seed=q)
    b = random_circuit(q, 3 * q + 10, seed=q + 100)
    assert assert_agrees(a, a) >= FLOOR
    assert assert_agrees(a, transpile(a, REDUNDANT).circuit) >= FLOOR
    assert_agrees(a, b)


def _perturbed(circuit, delta):
    """The circuit with its first angle moved by ``delta``."""
    gates = list(circuit.gates)
    i = next(i for i, g in enumerate(gates) if g.theta is not None)
    gates[i] = Gate(gates[i].kind, gates[i].targets, gates[i].theta + delta)
    return Circuit(circuit.width, tuple(gates))


@PROFILES
@pytest.mark.parametrize("q", range(1, 8))
def test_broken_lowerings_get_the_oracles_verdict(q, profile):
    source = build_benchmark(q, random_input(q, 3))
    lowered = transpile(source, profile).circuit
    assert_agrees(source, Circuit(q, lowered.gates[:-1]))
    assert assert_agrees(source, _perturbed(lowered, 0.3)) < FLOOR
    # a perturbation that moves the overlap by about 1e-9, near the verdict's edge
    assert_agrees(source, _perturbed(lowered, 1e-4))


def test_width_mismatch_and_cap_are_refused():
    with pytest.raises(ValueError, match="equal width"):
        verify_equivalence(build_benchmark(3, 1), build_benchmark(4, 1))
    wide = build_benchmark(11, 5)
    with pytest.raises(ValueError, match="capped at 10 qubits"):
        verify_equivalence(wide, wide)

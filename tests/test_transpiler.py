"""Gate-set lowering checks.

The two profiles were tuned so that on controlled-phase populations the
two-qubit-gate count doubles exactly, and on full benchmarks the total gate
count lands near triple.  The census constants below were derived by hand
from the per-gate expansion table (one entangler + two phase corrections per
CP in the direct profile; two CX plus three Euler triples in the verbose
profile) and are frozen here on purpose: a change in any expansion shows up
as a count drift before it shows up as a subtle cost-model shift.
"""

import dataclasses
import math

import numpy as np
import pytest

from qbench.circuit import Circuit, Gate, GateKind, build_benchmark
from qbench.providers import JobStatus, SimProvider, default_gate_limit, target_profile
from qbench.simulator import circuit_unitary, gate_matrix, verify_equivalence
from qbench.transpiler import EFFICIENT, PROFILES, REDUNDANT, euler_zyz, lowered_census, transpile

# (q, profile) -> (n_1q, n_2q) for the n=0 benchmark, hand-derived
FROZEN_COUNTS = {
    (8, "efficient"): (200, 80),
    (8, "redundant"): (576, 136),
    (12, "efficient"): (396, 168),
    (12, "redundant"): (1296, 300),
    (16, "efficient"): (656, 288),
    (16, "redundant"): (2304, 528),
}


@pytest.mark.parametrize("q,profile_name", sorted(FROZEN_COUNTS))
def test_frozen_census(q, profile_name):
    result = transpile(build_benchmark(q, 0), PROFILES[profile_name])
    want_1q, want_2q = FROZEN_COUNTS[(q, profile_name)]
    assert (result.census.n_1q, result.census.n_2q) == (want_1q, want_2q)


@pytest.mark.parametrize("q", [8, 12, 16])
def test_total_size_ratio_band(q):
    for n in (0, (1 << q) - 1):
        c = build_benchmark(q, n)
        eff = transpile(c, EFFICIENT).census.total
        red = transpile(c, REDUNDANT).census.total
        assert 2.5 <= red / eff <= 3.5


def test_cp_population_doubles_two_qubit_count():
    rng = np.random.default_rng(3)
    gates = []
    for _ in range(40):
        a, b = rng.choice(6, size=2, replace=False)
        gates.append(Gate(GateKind.CP, (int(a), int(b)), float(rng.uniform(0.1, 3.0))))
    c = Circuit(width=6, gates=tuple(gates))
    eff = transpile(c, EFFICIENT).census
    red = transpile(c, REDUNDANT).census
    assert eff.n_2q == 40
    assert red.n_2q == 80
    assert red.n_2q == 2 * eff.n_2q


def test_output_is_native_only():
    for profile in (EFFICIENT, REDUNDANT):
        lowered = transpile(build_benchmark(6, 33), profile).circuit
        for g in lowered.gates:
            native = profile.native_1q if g.arity == 1 else {profile.native_2q}
            assert g.kind in native


def test_transpile_deterministic():
    c = build_benchmark(7, 81)
    assert transpile(c, REDUNDANT) == transpile(c, REDUNDANT)


def _unitary_with_phase(result):
    return np.exp(1j * result.global_phase) * circuit_unitary(result.circuit)


SINGLE_GATES = [
    Gate(GateKind.X, (0,)),
    Gate(GateKind.H, (0,)),
    Gate(GateKind.P, (0,), 0.7),
    Gate(GateKind.RZ, (0,), -1.3),
    Gate(GateKind.RX, (0,), 2.1),
    Gate(GateKind.RY, (0,), 0.4),
    Gate(GateKind.CP, (0, 1), 1.9),
    Gate(GateKind.CP, (1, 0), -0.6),
    Gate(GateKind.CX, (0, 1)),
    Gate(GateKind.CX, (1, 0)),
    Gate(GateKind.ZZ, (0, 1), 1.1),
    Gate(GateKind.SWAP, (0, 1)),
]


@pytest.mark.parametrize("gate", SINGLE_GATES, ids=lambda g: f"{g.kind.value}{g.targets}")
@pytest.mark.parametrize("profile", [EFFICIENT, REDUNDANT], ids=lambda p: p.name)
def test_single_gate_unitary_exact(gate, profile):
    width = max(gate.targets) + 1
    src = Circuit(width=width, gates=(gate,))
    out = transpile(src, profile)
    np.testing.assert_allclose(
        _unitary_with_phase(out), circuit_unitary(src), atol=1e-12
    )


def test_benchmark_unitary_preserved_with_phase():
    src = build_benchmark(3, 5)
    for profile in (EFFICIENT, REDUNDANT):
        out = transpile(src, profile)
        np.testing.assert_allclose(
            _unitary_with_phase(out), circuit_unitary(src), atol=1e-10
        )


@pytest.mark.parametrize("q", [2, 4, 6])
@pytest.mark.parametrize("profile", [EFFICIENT, REDUNDANT], ids=lambda p: p.name)
def test_equivalence_on_benchmarks(q, profile):
    src = build_benchmark(q, (1 << q) // 3)
    out = transpile(src, profile)
    assert verify_equivalence(src, out.circuit) >= 1 - 1e-9


def test_equivalence_flags_a_broken_rewrite():
    src = build_benchmark(4, 3)
    out = transpile(src, EFFICIENT)
    gates = list(out.circuit.gates)
    for i, g in enumerate(gates):
        if g.kind is GateKind.ZZ:
            gates[i] = Gate(GateKind.ZZ, g.targets, g.theta + 0.3)
            break
    broken = Circuit(width=4, gates=tuple(gates))
    assert verify_equivalence(src, broken) < 1 - 1e-9


def test_global_phase_normalized():
    for q, n in [(3, 0), (5, 17), (6, 63)]:
        for profile in (EFFICIENT, REDUNDANT):
            phase = transpile(build_benchmark(q, n), profile).global_phase
            assert 0.0 <= phase < 2 * math.pi


def test_zero_angle_rotations_are_not_elided():
    # the verbose pipeline keeps the full Euler triple even for angle zero
    c = Circuit(width=1, gates=(Gate(GateKind.RZ, (0,), 0.0),))
    assert transpile(c, REDUNDANT).census.total == 3
    assert transpile(c, EFFICIENT).census.total == 1


class TestEuler:
    @staticmethod
    def _rebuild(alpha, phi, theta, lam):
        rz_phi = gate_matrix(Gate(GateKind.RZ, (0,), phi))
        ry = gate_matrix(Gate(GateKind.RY, (0,), theta))
        rz_lam = gate_matrix(Gate(GateKind.RZ, (0,), lam))
        return np.exp(1j * alpha) * (rz_phi @ ry @ rz_lam)

    @pytest.mark.parametrize(
        "u",
        [
            np.eye(2, dtype=complex),
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
            np.diag([np.exp(0.3j), np.exp(-1.1j)]),
            np.array([[0, 1j], [1j, 0]]),
        ],
        ids=["I", "X", "Z", "diag", "antidiag"],
    )
    def test_special_matrices(self, u):
        np.testing.assert_allclose(self._rebuild(*euler_zyz(u)), u, atol=1e-12)

    def test_random_unitaries(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u, _ = np.linalg.qr(m)
            np.testing.assert_allclose(self._rebuild(*euler_zyz(u)), u, atol=1e-10)


class TestGateLimit:
    """The limit a provider admits a job by, on aria1-aws with its limit replaced."""

    @staticmethod
    def _submit(q, limit):
        profile = dataclasses.replace(target_profile("aria1-aws"), gate_limit=limit)
        return SimProvider(profile).submit(build_benchmark(q, 0), shots=10, clock=0, seed=1)

    def test_no_limit_accepts_anything(self):
        assert lowered_census(build_benchmark(25, 0), REDUNDANT).total > default_gate_limit()
        handle = self._submit(25, None)
        assert handle.status is JobStatus.SUBMITTED and handle.error_message is None

    def test_boundary_inclusive(self):
        total = lowered_census(build_benchmark(8, 0), REDUNDANT).total
        accepted = self._submit(8, total)
        assert accepted.status is JobStatus.SUBMITTED and accepted.census.total == total
        refused = self._submit(8, total - 1)
        assert refused.status is JobStatus.ERROR
        assert refused.error_message == f"lowered gate count {total} exceeds limit {total - 1}"

    def test_default_limit_value(self):
        assert default_gate_limit() == 3231
        assert default_gate_limit(20, 22) == 4913

    def test_limit_separates_the_two_widths(self):
        limit = default_gate_limit()
        hi16 = transpile(build_benchmark(16, (1 << 16) - 1), REDUNDANT).census.total
        lo18 = transpile(build_benchmark(18, 0), REDUNDANT).census.total
        assert hi16 <= limit < lo18

    def test_inverted_widths_rejected(self):
        with pytest.raises(ValueError):
            default_gate_limit(18, 16)

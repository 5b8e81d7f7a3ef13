"""Statevector engine checks: gate algebra, benchmark end-to-end, sampling, noise."""

import math

import numpy as np
import pytest

from qbench import simulator
from qbench.circuit import (
    Circuit,
    Gate,
    GateKind,
    build_benchmark,
    circuit_from_json,
    circuit_to_json,
    ideal_output,
    inverse,
)
from qbench.simulator import (
    MAX_WIDTH,
    GlobalDepolarizing,
    PauliTrajectory,
    circuit_unitary,
    gate_matrix,
    ideal_distribution,
    run_noisy,
    run_statevector,
    sample,
    sample_depolarized,
)


def _rand_angle(rng):
    return float(rng.uniform(-2 * math.pi, 2 * math.pi))


class TestGateMatrices:
    def test_all_kinds_unitary(self):
        rng = np.random.default_rng(5)
        for kind in GateKind:
            targets = (0,) if kind in {GateKind.X, GateKind.H, GateKind.P, GateKind.RZ, GateKind.RX, GateKind.RY} else (0, 1)
            theta = _rand_angle(rng) if kind in {GateKind.P, GateKind.RZ, GateKind.RX, GateKind.RY, GateKind.CP, GateKind.ZZ} else None
            m = gate_matrix(Gate(kind, targets, theta))
            np.testing.assert_allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12)

    def test_x_and_h(self):
        x = gate_matrix(Gate(GateKind.X, (0,)))
        np.testing.assert_allclose(x, np.array([[0, 1], [1, 0]]), atol=0)
        h = gate_matrix(Gate(GateKind.H, (0,)))
        np.testing.assert_allclose(h @ h, np.eye(2), atol=1e-15)

    def test_cp_is_diagonal_phase(self):
        m = gate_matrix(Gate(GateKind.CP, (0, 1), 0.7))
        np.testing.assert_allclose(np.diag(np.diag(m)), m, atol=0)
        np.testing.assert_allclose(np.diag(m), [1, 1, 1, np.exp(0.7j)], atol=1e-15)

    def test_zz_phases(self):
        m = gate_matrix(Gate(GateKind.ZZ, (0, 1), 0.9))
        e = np.exp(-0.45j)
        np.testing.assert_allclose(np.diag(m), [e, e.conjugate(), e.conjugate(), e], atol=1e-15)


class TestStatevector:
    def test_bit_order_msb_first(self):
        # X on qubit 0 (weight 1) of a 3-qubit register -> "001"
        c = Circuit(width=3, gates=(Gate(GateKind.X, (0,)),))
        state = run_statevector(c)
        assert abs(state[1]) == pytest.approx(1.0)
        counts = sample(state, 10, seed=1)
        assert counts == {"001": 10}

    @pytest.mark.parametrize("q,n", [(2, 1), (3, 2), (4, 11), (5, 19), (6, 63), (7, 100)])
    def test_benchmark_is_a_delta(self, q, n):
        state = run_statevector(build_benchmark(q, n))
        probs = np.abs(state) ** 2
        expect = int(ideal_output(q, n), 2)
        assert probs[expect] == pytest.approx(1.0, abs=1e-9)

    def test_circuit_then_inverse_returns_to_zero(self):
        for q, n in [(4, 9), (7, 64), (10, 777)]:
            c = build_benchmark(q, n)
            round_trip = Circuit(width=q, gates=c.gates + tuple(inverse(c.gates)))
            state = run_statevector(round_trip)
            assert abs(state[0]) == pytest.approx(1.0, abs=1e-9)

    def test_norm_preserved_on_random_circuit(self):
        rng = np.random.default_rng(11)
        pool = [GateKind.H, GateKind.RX, GateKind.CP, GateKind.ZZ, GateKind.SWAP, GateKind.CX]
        gates = []
        for _ in range(120):
            kind = pool[int(rng.integers(len(pool)))]
            if kind in {GateKind.H, GateKind.RX}:
                t = (int(rng.integers(6)),)
            else:
                a, b = rng.choice(6, size=2, replace=False)
                t = (int(a), int(b))
            theta = _rand_angle(rng) if kind in {GateKind.RX, GateKind.CP, GateKind.ZZ} else None
            gates.append(Gate(kind, t, theta))
        state = run_statevector(Circuit(width=6, gates=tuple(gates)))
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-9)

    def test_width_cap(self):
        wide = Circuit(width=MAX_WIDTH + 1, gates=(Gate(GateKind.X, (0,)),))
        with pytest.raises(ValueError):
            run_statevector(wide)
        for shots in (0, 1):
            with pytest.raises(ValueError):
                run_noisy(wide, PauliTrajectory(0.1), shots, 1)

    def test_circuit_unitary_cx(self):
        c = Circuit(width=2, gates=(Gate(GateKind.CX, (1, 0)),))
        u = circuit_unitary(c)
        # control is qubit 1 (weight 2): flips qubit 0 on the upper half
        expect = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        np.testing.assert_allclose(u, expect, atol=1e-15)

    def test_circuit_unitary_width_cap(self):
        with pytest.raises(ValueError, match="capped at 10 qubits"):
            circuit_unitary(Circuit(width=11, gates=(Gate(GateKind.X, (0,)),)))


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        state = run_statevector(build_benchmark(4, 3))
        assert sample(state, 500, seed=9) == sample(state, 500, seed=9)

    def test_shot_conservation_and_keys(self):
        c = Circuit(width=3, gates=(Gate(GateKind.H, (0,)), Gate(GateKind.H, (2,))))
        counts = sample(run_statevector(c), 1000, seed=2)
        assert sum(counts.values()) == 1000
        assert all(len(k) == 3 and set(k) <= {"0", "1"} for k in counts)

    def test_delta_distribution_all_shots_on_one_string(self):
        state = run_statevector(build_benchmark(5, 30))
        counts = sample(state, 500, seed=4)
        assert counts == {ideal_output(5, 30): 500}

    @pytest.mark.parametrize("state", [[1.0 + 0j], []])
    def test_a_state_of_no_qubits_is_refused(self, state):
        # a one-amplitude state passed the power-of-two check and crashed rendering
        with pytest.raises(ValueError, match="width must be >= 1"):
            sample(np.array(state, dtype=complex), 5, 1)

    def test_a_state_length_not_a_power_of_two_is_refused(self):
        with pytest.raises(ValueError, match="not a power of two"):
            sample(np.ones(6, dtype=complex), 5, 1)

    @pytest.mark.parametrize("shots", [2.5, 3.0, True, -1])
    def test_shots_that_are_not_an_int_of_at_least_zero_are_refused(self, shots):
        state = run_statevector(build_benchmark(3, 1))
        with pytest.raises(ValueError, match="not an int >= 0"):
            sample(state, shots, 1)
        for noise in (GlobalDepolarizing(0.99), PauliTrajectory(0.01)):
            with pytest.raises(ValueError, match="not an int >= 0"):
                run_noisy(build_benchmark(3, 1), noise, shots, 1)

    @pytest.mark.parametrize(
        "name, shots, n_2q",
        [("shots", 2.5, 4), ("shots", True, 4), ("shots", -1, 4),
         ("n_2q", 100, -3), ("n_2q", 100, 2.5), ("n_2q", 100, True)],
    )
    def test_sample_depolarized_refuses_a_count_that_is_not_an_int_of_at_least_zero(
        self, name, shots, n_2q
    ):
        bad = shots if name == "shots" else n_2q
        with pytest.raises(ValueError, match=rf"^{name} {bad!r} is not an int >= 0$"):
            sample_depolarized(build_benchmark(3, 1), n_2q, GlobalDepolarizing(0.99), shots, 1)


class TestIdealDistribution:
    def test_matches_statevector_path(self):
        c = build_benchmark(6, 40)
        dist = ideal_distribution(c)
        assert dist == {ideal_output(6, 40): 1.0}
        probs = np.abs(run_statevector(c)) ** 2
        assert probs[int(ideal_output(6, 40), 2)] == pytest.approx(1.0, abs=1e-9)

    def test_works_beyond_statevector_cap(self):
        c = build_benchmark(30, 12345)
        assert ideal_distribution(c) == {ideal_output(30, 12345): 1.0}

    def test_truncated_benchmark_is_simulated(self):
        truncated = Circuit(4, build_benchmark(4, 3).gates[:-5])
        c = circuit_from_json(circuit_to_json(truncated))
        dist = ideal_distribution(c)
        assert sorted(dist) == ["0000", "0100", "1000", "1100"]
        assert all(p == pytest.approx(0.25) for p in dist.values())

    def test_benchmark_is_recognised_by_its_gates_alone(self):
        # through JSON every gate is a new object
        c = circuit_from_json(circuit_to_json(Circuit(5, build_benchmark(5, 22).gates)))
        assert ideal_distribution(c) == {ideal_output(5, 22): 1.0}

    def test_edited_body_is_simulated(self):
        # doubling every adder angle adds two, not one; the length is unchanged
        gates = [
            Gate(g.kind, g.targets, 2 * g.theta) if g.kind is GateKind.P else g
            for g in build_benchmark(4, 3).gates
        ]
        dist = ideal_distribution(Circuit(4, tuple(gates)))
        assert max(dist, key=dist.get) == format(5, "04b")
        assert dist[format(5, "04b")] == pytest.approx(1.0)

    def test_body_after_a_prefix_other_than_x_gates_is_simulated(self):
        # H prepares |0> + |1>, so the adder splits it between 0 + 1 and 1 + 1
        body = build_benchmark(4, 0).gates
        c = Circuit(4, (Gate(GateKind.H, (0,)),) + body)
        dist = ideal_distribution(c)
        assert sorted(dist) == [ideal_output(4, 0), ideal_output(4, 1)]
        assert all(p == pytest.approx(0.5) for p in dist.values())

    def test_plain_circuit_falls_back_to_simulation(self):
        c = Circuit(width=2, gates=(Gate(GateKind.H, (0,)),))
        dist = ideal_distribution(c)
        assert dist["00"] == pytest.approx(0.5)
        assert dist["01"] == pytest.approx(0.5)


class TestNoiseChannels:
    def test_depolarizing_range_checked(self):
        with pytest.raises(ValueError):
            GlobalDepolarizing(-0.1)
        with pytest.raises(ValueError):
            GlobalDepolarizing(1.2)
        with pytest.raises(ValueError):
            PauliTrajectory(-0.1)
        GlobalDepolarizing(1.0)  # boundary values are legal
        GlobalDepolarizing(0.0)  # degenerate pure-scramble channel

    def test_perfect_gates_reproduce_delta(self):
        c = build_benchmark(6, 11)
        counts = run_noisy(c, GlobalDepolarizing(1.0), 400, seed=3)
        assert counts == {ideal_output(6, 11): 400}
        counts = run_noisy(c, PauliTrajectory(0.0), 50, seed=3)
        assert counts == {ideal_output(6, 11): 50}

    def test_depolarizing_deterministic_and_conserving(self):
        c = build_benchmark(8, 200)
        a = run_noisy(c, GlobalDepolarizing(0.995), 2000, seed=7)
        b = run_noisy(c, GlobalDepolarizing(0.995), 2000, seed=7)
        assert a == b
        assert sum(a.values()) == 2000
        assert all(len(k) == 8 for k in a)

    def test_depolarizing_works_past_the_statevector_cap(self):
        c = build_benchmark(28, 5)
        counts = run_noisy(c, GlobalDepolarizing(0.9999), 100, seed=1)
        assert sum(counts.values()) == 100

    def test_depolarizing_converges_to_mixture_formula(self):
        # F_obs -> f**n_2q + (1 - f**n_2q)/2**q; binomial noise, 5 sigma band
        q, f, shots = 6, 0.99, 100_000
        c = build_benchmark(q, 33)
        counts = run_noisy(c, GlobalDepolarizing(f), shots, seed=13)
        n_2q = sum(1 for g in c.gates if g.arity == 2)
        p_clean = f**n_2q
        expect = p_clean + (1 - p_clean) / 2**q
        observed = counts.get(ideal_output(q, 33), 0) / shots
        sigma = math.sqrt(expect * (1 - expect) / shots)
        assert abs(observed - expect) < 5 * sigma

    def test_trajectory_deterministic_and_noisier_with_p(self):
        c = build_benchmark(4, 6)
        a = run_noisy(c, PauliTrajectory(0.02), 300, seed=21)
        assert a == run_noisy(c, PauliTrajectory(0.02), 300, seed=21)
        assert sum(a.values()) == 300
        heavy = run_noisy(c, PauliTrajectory(0.5), 300, seed=21)
        key = ideal_output(4, 6)
        assert heavy.get(key, 0) < a.get(key, 0)

    @pytest.mark.parametrize("shots", [1, 20])
    def test_trajectories_build_each_gate_matrix_once_per_call(self, monkeypatch, shots):
        c = build_benchmark(3, 5)
        built = []
        monkeypatch.setattr(
            simulator, "gate_matrix", lambda gate: built.append(gate) or gate_matrix(gate)
        )
        run_noisy(c, PauliTrajectory(0.2), shots, seed=4)
        assert built == list(c.gates)

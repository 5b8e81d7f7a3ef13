import dataclasses
import json
import math

import pytest

from qbench.circuit import (
    Circuit,
    Gate,
    GateKind,
    build_benchmark,
    census,
    circuit_from_json,
    circuit_to_json,
    ideal_output,
    inverse,
    random_input,
)


def test_gate_arity_checked():
    with pytest.raises(ValueError):
        Gate(GateKind.H, (0, 1))
    with pytest.raises(ValueError):
        Gate(GateKind.CX, (2,))


def test_gate_targets_distinct_and_nonnegative():
    with pytest.raises(ValueError):
        Gate(GateKind.CX, (1, 1))
    with pytest.raises(ValueError):
        Gate(GateKind.X, (-1,))


@pytest.mark.parametrize(
    "kind, targets",
    [(GateKind.H, (1.0,)), (GateKind.X, (True,)), (GateKind.CX, (1.0, 0)),
     (GateKind.CX, (0, False)), (GateKind.SWAP, ("0", 1))],
)
def test_gate_refuses_a_target_that_is_not_an_int(kind, targets):
    with pytest.raises(ValueError, match="must be ints >= 0"):
        Gate(kind, targets)


@pytest.mark.parametrize(
    "kind, targets", [(GateKind.H, [0]), (GateKind.CX, [0, 1])], ids=["one-target", "two-targets"]
)
def test_gate_refuses_targets_that_are_not_a_tuple(kind, targets):
    # a list would make the gate unequal to its tuple twin and its circuit unhashable
    with pytest.raises(ValueError, match=r"must be ints >= 0 in a tuple"):
        Gate(kind, targets)


def test_json_circuit_with_a_float_target_is_refused():
    text = json.dumps({"width": 2, "gates": [{"kind": "h", "targets": [1.0]}]})
    with pytest.raises(ValueError, match=r"targets \(1\.0,\) must be ints >= 0"):
        circuit_from_json(text)


def test_gate_angle_rules():
    with pytest.raises(ValueError):
        Gate(GateKind.RZ, (0,))  # parametric without angle
    with pytest.raises(ValueError):
        Gate(GateKind.RZ, (0,), math.nan)
    with pytest.raises(ValueError):
        Gate(GateKind.X, (0,), 1.0)  # angle on a fixed gate
    Gate(GateKind.CP, (0, 1), 0.25)  # fine


def test_circuit_rejects_out_of_range_targets():
    with pytest.raises(ValueError):
        Circuit(width=2, gates=(Gate(GateKind.X, (2,)),))
    with pytest.raises(ValueError):
        Circuit(width=0, gates=())


# closed forms for the benchmark shape: popcount(n) X gates, one H and one P
# per qubit per ladder pass, q(q-1) controlled phases, 2*(q//2) swaps
def _expected_census(q, n):
    n_1q = bin(n).count("1") + 3 * q
    n_2q = q * (q - 1) + 2 * (q // 2)
    return n_1q, n_2q


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 11])
def test_census_matches_closed_form(q):
    for n in (0, (1 << q) - 1, (1 << q) // 3):
        c = build_benchmark(q, n)
        got = census(c)
        n_1q, n_2q = _expected_census(q, n)
        assert (got.n_1q, got.n_2q, got.total) == (n_1q, n_2q, n_1q + n_2q)


def test_census_grows_quadratically():
    totals = {q: census(build_benchmark(q, 0)).total for q in (4, 8, 16)}
    assert 3.0 < totals[8] / totals[4] < 5.0
    assert 3.0 < totals[16] / totals[8] < 5.0


def test_ideal_output_examples():
    assert ideal_output(3, 2) == "011"
    assert ideal_output(4, 0) == "0001"
    assert ideal_output(4, 15) == "0000"  # wraps
    assert ideal_output(10, 1023) == "0000000000"
    assert ideal_output(10, 4) == "0000000101"


def test_ideal_output_rejects_out_of_range_n():
    with pytest.raises(ValueError):
        ideal_output(3, 8)
    with pytest.raises(ValueError):
        ideal_output(3, -1)
    for q in (0, -1):
        with pytest.raises(ValueError, match="out of range"):
            ideal_output(q, 0)


def test_benchmark_rejects_bad_input():
    with pytest.raises(ValueError):
        build_benchmark(4, 16)
    with pytest.raises(ValueError):
        build_benchmark(0, 0)


def test_a_circuit_is_its_width_and_gates():
    c = build_benchmark(8, 5)
    assert [f.name for f in dataclasses.fields(Circuit)] == ["width", "gates"]
    assert c == build_benchmark(8, 5) and hash(c) == hash(build_benchmark(8, 5))
    assert c != build_benchmark(8, 6) and c != Circuit(9, c.gates)
    text = circuit_to_json(c)
    assert set(json.loads(text)) == {"gates", "width"}
    assert circuit_from_json(text) == c
    # any other key is ignored
    assert circuit_from_json(json.dumps({**json.loads(text), "label": "x"})) == c


def test_benchmark_x_prep_matches_bits():
    c = build_benchmark(5, 0b10110)
    xs = [g.targets[0] for g in c.gates if g.kind is GateKind.X]
    assert sorted(xs) == [1, 2, 4]


def test_inverse_is_involution():
    c = build_benchmark(4, 7)
    assert tuple(inverse(inverse(c.gates))) == c.gates


def test_inverse_negates_angles_and_reverses():
    gates = [Gate(GateKind.RZ, (0,), 0.5), Gate(GateKind.CP, (0, 1), 1.25)]
    inv = inverse(gates)
    assert inv[0].kind is GateKind.CP and inv[0].theta == -1.25
    assert inv[1].kind is GateKind.RZ and inv[1].theta == -0.5


def test_random_input_deterministic():
    assert random_input(12, 77) == random_input(12, 77)
    assert random_input(12, 77) != random_input(12, 78)  # overwhelmingly likely


def test_random_input_range_and_coverage():
    seen = {random_input(1, s) for s in range(1000)}
    assert seen == {0, 1}
    values = [random_input(8, s) for s in range(10_000)]
    assert all(0 <= v < 256 for v in values)
    mean = sum(values) / len(values)
    assert abs(mean - 127.5) < 10.0


def test_random_input_rejects_bad_width():
    with pytest.raises(ValueError):
        random_input(0, 1)
    with pytest.raises(ValueError):
        random_input(64, 1)


def test_json_round_trip_benchmark():
    c = build_benchmark(5, 19)
    back = circuit_from_json(circuit_to_json(c))
    assert back == c


def test_json_round_trip_every_kind():
    gates = (
        Gate(GateKind.X, (0,)),
        Gate(GateKind.H, (1,)),
        Gate(GateKind.P, (0,), 0.3),
        Gate(GateKind.RZ, (2,), -1.0),
        Gate(GateKind.RX, (2,), 2.5),
        Gate(GateKind.RY, (0,), 0.1),
        Gate(GateKind.CP, (0, 1), 1.5),
        Gate(GateKind.CX, (2, 0)),
        Gate(GateKind.ZZ, (1, 2), -0.75),
        Gate(GateKind.SWAP, (0, 2)),
    )
    c = Circuit(width=3, gates=gates)
    back = circuit_from_json(circuit_to_json(c))
    assert back == c
    # canonical output is stable
    assert circuit_to_json(back) == circuit_to_json(c)


def test_json_is_plain_text():
    text = circuit_to_json(build_benchmark(3, 1))
    obj = json.loads(text)
    assert obj["width"] == 3
    assert {e["kind"] for e in obj["gates"]} <= {k.value for k in GateKind}

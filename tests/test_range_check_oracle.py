"""Differential oracle for the range check in ``Circuit.__post_init__``.

``oracle_range_check`` is the per-gate loop the constructor ran before it
became one C-level pass over all targets.  The constructor must accept and
reject exactly the circuits the loop does, with the same message naming the
same first offending gate.
"""

import json
import random

import pytest

from qbench.circuit import (
    Circuit,
    Gate,
    GateKind,
    ONE_QUBIT_KINDS,
    PARAMETRIC_KINDS,
    build_benchmark,
    circuit_from_json,
    circuit_to_json,
)


def oracle_range_check(width, gates):
    if type(width) is not int or width < 1:
        raise ValueError("width must be an int >= 1")
    for g in gates:
        if max(g.targets) >= width:
            raise ValueError(f"gate {g} out of range for width {width}")


def outcome(fn, *args):
    """None when ``fn`` accepts, else the ValueError's message."""
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


def assert_same_verdict(width, gates):
    want = outcome(oracle_range_check, width, tuple(gates))
    assert outcome(Circuit, width, tuple(gates)) == want
    return want


@pytest.mark.parametrize("q", [1, 2, 5, 8, 13])
def test_benchmark_circuits_at_and_around_their_width(q):
    for n in sorted({0, 1, (1 << q) - 1}):
        gates = build_benchmark(q, n).gates
        assert assert_same_verdict(q, gates) is None
        assert assert_same_verdict(q + 1, gates) is None
        for width in range(-1, q):
            message = assert_same_verdict(width, gates)
            assert message is not None


def test_first_offending_gate_is_named():
    gates = (
        Gate(GateKind.H, (0,)),
        Gate(GateKind.CP, (1, 3), 0.5),
        Gate(GateKind.X, (4,)),
        Gate(GateKind.SWAP, (5, 0)),
    )
    message = assert_same_verdict(3, gates)
    assert message == f"gate {gates[1]} out of range for width 3"


def test_json_circuit_with_a_target_past_the_width():
    text = circuit_to_json(build_benchmark(5, 9))
    obj = json.loads(text)
    for index in (0, 7, len(obj["gates"]) - 1):
        edited = json.loads(text)
        edited["gates"][index]["targets"][-1] = 5
        gates = tuple(
            Gate(GateKind(e["kind"]), tuple(e["targets"]), e.get("theta"))
            for e in edited["gates"]
        )
        want = outcome(oracle_range_check, 5, gates)
        assert want == f"gate {gates[index]} out of range for width 5"
        assert outcome(circuit_from_json, json.dumps(edited)) == want


@pytest.mark.parametrize("width", [-2, 0, 1, 3, 2.5, 3.0, True])
def test_empty_gate_list(width):
    assert_same_verdict(width, ())


def test_width_zero_is_refused_before_any_gate():
    assert assert_same_verdict(0, (Gate(GateKind.X, (0,)),)) == "width must be an int >= 1"
    assert assert_same_verdict(0, (Gate(GateKind.X, (7,)),)) == "width must be an int >= 1"


def _random_gate(rng, span):
    kind = rng.choice(list(GateKind))
    arity = 1 if kind in ONE_QUBIT_KINDS else 2
    targets = tuple(rng.sample(range(span), arity))
    theta = rng.uniform(-3.0, 3.0) if kind in PARAMETRIC_KINDS else None
    return Gate(kind, targets, theta)


def test_random_circuits():
    rng = random.Random(20240917)
    rejected = 0
    for _ in range(400):
        span = rng.randint(2, 9)
        gates = [_random_gate(rng, span) for _ in range(rng.randint(0, 12))]
        width = rng.randint(0, span + 1)
        rejected += assert_same_verdict(width, gates) is not None
    assert 0 < rejected < 400

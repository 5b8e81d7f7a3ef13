"""Gate-level circuit IR and the Fourier-adder benchmark workload.

Bit-order convention (fixed for the whole package): qubit i carries the bit
of weight 2**i, so the integer encoded by a basis state is sum(bit_i << i).
Measurement strings are printed most-significant-bit first, i.e. qubit q-1
is the leftmost character and ``format(v, f"0{q}b")`` is the rendering of
basis state v.

The benchmark circuit for (q, n) has four segments:

  (a) X gates preparing |n> in binary,
  (b) the Fourier ladder: per qubit an H followed by controlled-phase
      couplings CP(2*pi / 2**k) from each lower qubit, then explicit
      terminal SWAPs reversing the register,
  (c) one P(2*pi * 2**i / 2**q) on each qubit i, which advances the
      encoded integer by one in the Fourier basis,
  (d) the exact mirror inverse of (b).

A noiseless run therefore concentrates all probability on (n+1) mod 2**q.
The terminal SWAPs are kept as real gates (not index relabeling) so that
two-qubit gate counts reflect what a hardware run would pay for.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from itertools import chain
from operator import attrgetter
from typing import Any, Iterable

from .rng import derive_seed, mix64


class GateKind(str, Enum):
    X = "x"
    H = "h"
    P = "p"
    RZ = "rz"
    RX = "rx"
    RY = "ry"
    CP = "cp"
    CX = "cx"
    ZZ = "zz"
    SWAP = "swap"


ONE_QUBIT_KINDS = frozenset(
    {GateKind.X, GateKind.H, GateKind.P, GateKind.RZ, GateKind.RX, GateKind.RY}
)
PARAMETRIC_KINDS = frozenset(
    {GateKind.P, GateKind.RZ, GateKind.RX, GateKind.RY, GateKind.CP, GateKind.ZZ}
)


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate application. ``targets`` order matters for CX (control, target)."""

    kind: GateKind
    targets: tuple[int, ...]
    theta: float | None = None

    def __post_init__(self) -> None:
        want = 1 if self.kind in ONE_QUBIT_KINDS else 2
        if len(self.targets) != want:
            raise ValueError(f"{self.kind.value} expects {want} target(s), got {self.targets}")
        first, last = self.targets[0], self.targets[-1]  # all of them: one or two
        ints = type(first) is int and type(last) is int
        if type(self.targets) is not tuple or not ints or min(first, last) < 0:
            raise ValueError(f"targets {self.targets} must be ints >= 0 in a tuple")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate targets {self.targets}")
        if self.kind in PARAMETRIC_KINDS:
            if self.theta is None or not math.isfinite(self.theta):
                raise ValueError(f"{self.kind.value} requires a finite angle")
        elif self.theta is not None:
            raise ValueError(f"{self.kind.value} takes no angle")

    @property
    def arity(self) -> int:
        return len(self.targets)


@dataclass(frozen=True)
class GateCensus:
    """Gate totals split by arity."""

    n_1q: int
    n_2q: int

    @property
    def total(self) -> int:
        return self.n_1q + self.n_2q

    def as_dict(self) -> dict[str, int]:
        return {"n_1q": self.n_1q, "n_2q": self.n_2q, "total": self.total}


_targets = attrgetter("targets")


@dataclass(frozen=True)
class Circuit:
    """Immutable gate list on ``width`` qubits; compares and hashes by both."""

    width: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if type(self.width) is not int or self.width < 1:
            raise ValueError("width must be an int >= 1")
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        # one C-level pass over all targets; the gate is named only on failure
        if gates and max(chain.from_iterable(map(_targets, gates))) >= self.width:
            bad = next(g for g in gates if max(g.targets) >= self.width)
            raise ValueError(f"gate {bad} out of range for width {self.width}")

    @cached_property
    def _input(self) -> int | None:
        """``benchmark_input(self)``, scanned once from the frozen gates; those shared
        with the cached body compare by identity, so a built benchmark's angles are not."""
        q, gates = self.width, self.gates
        if len(gates) < q * q:  # shorter than any body of this width; none is built
            return None
        body = _benchmark_body(q)
        cut = len(gates) - len(body)
        if cut < 0 or gates[cut:] != body:
            return None
        # the prefix is X gates on strictly rising qubits: it is _x_prefix(q, n)
        n = 0
        for g in gates[:cut]:
            if g.kind is not GateKind.X or n >> g.targets[0]:
                return None
            n |= 1 << g.targets[0]
        return n


def _in_range(width: int, gates: tuple[Gate, ...]) -> Circuit:
    """A ``Circuit`` built without the range check, for gates in range by construction."""
    circuit = object.__new__(Circuit)
    object.__setattr__(circuit, "width", width)
    object.__setattr__(circuit, "gates", gates)
    return circuit


def census(circuit: Circuit) -> GateCensus:
    gates = circuit.gates
    # Gate admits one or two targets, so each gate past one target is two-qubit
    n_2q = sum(map(len, map(_targets, gates))) - len(gates)
    return GateCensus(n_1q=len(gates) - n_2q, n_2q=n_2q)


def _check_benchmark(q: int, n: int) -> None:
    """Refuse a width that is not an int >= 1 or an input not an int in [0, 2**q)."""
    if type(q) is not int or q < 1:
        raise ValueError(f"q={q!r} out of range: not an int >= 1")
    if type(n) is not int or not 0 <= n < (1 << q):
        raise ValueError(f"n={n!r} out of range: not an int in [0, 2**{q})")


def ideal_output(q: int, n: int) -> str:
    """Expected measurement string of the benchmark: (n+1) mod 2**q, MSB first."""
    _check_benchmark(q, n)
    return format((n + 1) % (1 << q), f"0{q}b")


def _fourier_ladder(q: int) -> list[Gate]:
    gates: list[Gate] = []
    for i in range(q - 1, -1, -1):
        gates.append(Gate(GateKind.H, (i,)))
        for j in range(i - 1, -1, -1):
            # coupling strength falls off with bit distance
            gates.append(Gate(GateKind.CP, (j, i), 2 * math.pi / 2 ** (i - j + 1)))
    for i in range(q // 2):
        gates.append(Gate(GateKind.SWAP, (i, q - 1 - i)))
    return gates


def inverse(gates: Iterable[Gate]) -> list[Gate]:
    """Mirror inverse: reversed order, negated angles. H/X/CX/SWAP are involutions."""
    out: list[Gate] = []
    for g in reversed(list(gates)):
        theta = None if g.theta is None else -g.theta
        out.append(Gate(g.kind, g.targets, theta))
    return out


@cache
def _x_gate(i: int) -> Gate:
    """One shared X gate per qubit index, for segment (a)."""
    return Gate(GateKind.X, (i,))


def _x_prefix(q: int, n: int) -> tuple[Gate, ...]:
    """Segment (a): the X gates that prepare |n>, lowest qubit first."""
    return tuple(_x_gate(i) for i in range(q) if (n >> i) & 1)


@cache
def _benchmark_body(q: int) -> tuple[Gate, ...]:
    """Segments (b) to (d): they depend on q alone, so each width is built once.

    Gates are frozen, so every benchmark of width q shares this one tuple.  It
    is range-checked here, once, so ``build_benchmark`` need not re-check it.
    """
    ladder = _fourier_ladder(q)
    adder = [Gate(GateKind.P, (i,), 2 * math.pi * (1 << i) / (1 << q)) for i in range(q)]
    return Circuit(q, (*ladder, *adder, *inverse(ladder))).gates


def build_benchmark(q: int, n: int) -> Circuit:
    """Build the q-qubit Fourier-adder benchmark on input n."""
    _check_benchmark(q, n)
    # the prefix targets qubits below q and the body was checked when cached
    return _in_range(q, _x_prefix(q, n) + _benchmark_body(q))


def benchmark_input(circuit: Circuit) -> int | None:
    """n if the circuit's gates are exactly ``build_benchmark(width, n)``'s, else None.

    The circuit keeps the answer, so each circuit's gates are scanned once.
    """
    return circuit._input


def random_input(q: int, seed: int) -> int:
    """Uniform integer in [0, 2**q), a pure function of (q, seed)."""
    if type(q) is not int or not 1 <= q <= 63:
        raise ValueError(f"q={q!r} out of range: not an int in [1, 63]")
    return mix64(derive_seed("input", q, seed)) & ((1 << q) - 1)


# --- serialization -----------------------------------------------------------

def circuit_to_json(circuit: Circuit) -> str:
    gates = []
    for g in circuit.gates:
        entry: dict[str, Any] = {"kind": g.kind.value, "targets": list(g.targets)}
        if g.theta is not None:
            entry["theta"] = g.theta
        gates.append(entry)
    return json.dumps({"width": circuit.width, "gates": gates}, sort_keys=True)


def circuit_from_json(text: str) -> Circuit:
    obj = json.loads(text)
    gates = tuple(
        Gate(GateKind(e["kind"]), tuple(e["targets"]), e.get("theta"))
        for e in obj["gates"]
    )
    return Circuit(width=obj["width"], gates=gates)

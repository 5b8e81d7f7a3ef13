"""Gate-set lowering for the two modeled vendor pipelines.

Two profiles are provided, named for how they lower the controlled phase:

* ``EFFICIENT`` (direct entangler): native two-qubit gate is ZZ.  Each CP
  becomes one ZZ plus two RZ (CP(t) = e^{i t/4} RZ(t/2) x RZ(t/2) . ZZ(-t/2)),
  each SWAP becomes three ZZ entanglers with single-qubit dressing, and H
  passes through as a native rotation.  This models a lean vendor pipeline.
* ``REDUNDANT`` (two CX per phase): native two-qubit gate is CX.  Each CP
  becomes two CX plus three phase rotations, each SWAP becomes three CX, and
  every single-qubit gate is re-expressed as a full RZ-RY-RZ Euler triple
  with explicit zero angles.  This models a verbose pipeline that
  canonicalizes rotations without eliding identities; the padding is what
  drives the observed total-size gap between the two lowered circuits
  (about 2x on two-qubit gates from the CP rule, about 3x on total size).

No rewrite-level optimization is performed: rules fire gate by gate and the
output is exactly the concatenation of per-gate expansions.  Every expansion
is unitary-equal to its source gate once the tracked global phase is applied,
so a lowered circuit is equivalent to its source up to global phase.

Because no rule elides a gate, how many one- and two-qubit gates a source
gate lowers to depends on its kind alone, never on its angle or qubits.
``lowered_census`` uses that to give the census of a lowering without
emitting it: it multiplies the source gates' kind counts by a per-profile
table, derived by lowering one sample gate of each kind through the same
rules.  A benchmark's kind counts follow from its width and its X prefix, so
each width's body is counted once per profile.  Billing, gate limits and
distribution-level noise read only that census, so ``transpile`` is needed
only where lowered gates are run.  Lowering is all this module decides: a
target's gate limit is set and enforced in ``providers``, and a lowering is
checked against its source by ``simulator.verify_equivalence``.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from functools import cache, lru_cache
from operator import attrgetter

import numpy as np

from .circuit import (
    ONE_QUBIT_KINDS,
    PARAMETRIC_KINDS,
    Circuit,
    Gate,
    GateCensus,
    GateKind,
    _benchmark_body,
    benchmark_input,
    census,
)
from .simulator import gate_matrix
# no longer called here; bench/tracing.py still wraps this module's name
from .simulator import run_statevector  # noqa: F401


@dataclass(frozen=True)
class GateSetProfile:
    """A native gate set; ``native_2q`` (ZZ or CX) picks the lowering rules."""

    name: str
    native_1q: frozenset[GateKind]
    native_2q: GateKind

    def __post_init__(self) -> None:
        if self.native_2q not in (GateKind.ZZ, GateKind.CX):
            raise ValueError("native_2q must be zz or cx")


EFFICIENT = GateSetProfile(
    name="efficient",
    native_1q=frozenset({GateKind.H, GateKind.RX, GateKind.RY, GateKind.RZ}),
    native_2q=GateKind.ZZ,
)

REDUNDANT = GateSetProfile(
    name="redundant",
    native_1q=frozenset({GateKind.RX, GateKind.RY, GateKind.RZ}),
    native_2q=GateKind.CX,
)

PROFILES = {p.name: p for p in (EFFICIENT, REDUNDANT)}


@dataclass(frozen=True)
class TranspileResult:
    circuit: Circuit
    global_phase: float
    census: GateCensus


def euler_zyz(u: np.ndarray) -> tuple[float, float, float, float]:
    """Angles (alpha, phi, theta, lam) with u = e^{i alpha} RZ(phi) RY(theta) RZ(lam)."""
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    alpha = cmath.phase(det) / 2.0
    v = u * cmath.exp(-1j * alpha)
    theta = 2.0 * math.atan2(abs(v[1, 0]), abs(v[0, 0]))
    if abs(v[1, 0]) < 1e-12:
        phi, lam = -2.0 * cmath.phase(v[0, 0]), 0.0
    elif abs(v[0, 0]) < 1e-12:
        phi, lam = 2.0 * cmath.phase(v[1, 0]), 0.0
    else:
        s, d = -cmath.phase(v[0, 0]), cmath.phase(v[1, 0])
        phi, lam = s + d, s - d
    return alpha, phi, theta, lam


@lru_cache(maxsize=256)  # a width 2..60 benchmark sweep needs 180
def _euler_angles(kind: GateKind, theta: float | None, negative: bool) -> tuple[float, ...]:
    """``euler_zyz`` of a one-qubit gate; ``negative`` keeps -0.0 apart from 0.0."""
    return euler_zyz(gate_matrix(Gate(kind, (0,), theta)))


def _euler_triple(gate: Gate) -> tuple[list[Gate], float]:
    """Full ZYZ expansion of a one-qubit gate, zero angles included."""
    negative = gate.theta is not None and math.copysign(1.0, gate.theta) < 0
    alpha, phi, theta, lam = _euler_angles(gate.kind, gate.theta, negative)
    (t,) = gate.targets
    return (
        [Gate(GateKind.RZ, (t,), lam), Gate(GateKind.RY, (t,), theta), Gate(GateKind.RZ, (t,), phi)],
        alpha,
    )


def _lower_efficient(g: Gate) -> tuple[list[Gate], float]:
    k = g.kind
    if k in EFFICIENT.native_1q or k is GateKind.ZZ:
        return [g], 0.0
    if k is GateKind.X:
        return [Gate(GateKind.RX, g.targets, math.pi)], math.pi / 2
    if k is GateKind.P:
        return [Gate(GateKind.RZ, g.targets, g.theta)], g.theta / 2
    if k is GateKind.CP:
        a, b = g.targets
        t = g.theta
        return (
            [
                Gate(GateKind.RZ, (a,), t / 2),
                Gate(GateKind.RZ, (b,), t / 2),
                Gate(GateKind.ZZ, (a, b), -t / 2),
            ],
            t / 4,
        )
    if k is GateKind.CX:
        c, t = g.targets
        return (
            [
                Gate(GateKind.H, (t,)),
                Gate(GateKind.ZZ, (c, t), -math.pi / 2),
                Gate(GateKind.RZ, (c,), math.pi / 2),
                Gate(GateKind.RZ, (t,), math.pi / 2),
                Gate(GateKind.H, (t,)),
            ],
            math.pi / 4,
        )
    if k is GateKind.SWAP:
        a, b = g.targets
        half = math.pi / 2
        return (
            [
                Gate(GateKind.ZZ, (a, b), half),
                Gate(GateKind.RX, (a,), -half),
                Gate(GateKind.RX, (b,), -half),
                Gate(GateKind.ZZ, (a, b), half),
                Gate(GateKind.RX, (a,), half),
                Gate(GateKind.RX, (b,), half),
                Gate(GateKind.H, (a,)),
                Gate(GateKind.H, (b,)),
                Gate(GateKind.ZZ, (a, b), half),
                Gate(GateKind.H, (a,)),
                Gate(GateKind.H, (b,)),
            ],
            math.pi / 4,
        )
    raise ValueError(f"no efficient lowering for {k}")


def _lower_redundant(g: Gate) -> tuple[list[Gate], float]:
    k = g.kind
    if g.arity == 1:
        # every one-qubit gate goes through the Euler canonicalizer, even
        # native rotations; identity-angle padding is emitted on purpose
        return _euler_triple(g)
    if k is GateKind.CX:
        return [g], 0.0
    if k is GateKind.CP:
        a, b = g.targets
        t = g.theta
        out: list[Gate] = []
        phase = t / 4
        for rz_target, angle, cx_after in ((a, t / 2, True), (b, -t / 2, True), (b, t / 2, False)):
            triple, extra = _euler_triple(Gate(GateKind.RZ, (rz_target,), angle))
            out += triple
            phase += extra
            if cx_after:
                out.append(Gate(GateKind.CX, (a, b)))
        return out, phase
    if k is GateKind.ZZ:
        a, b = g.targets
        triple, extra = _euler_triple(Gate(GateKind.RZ, (b,), g.theta))
        return (
            [Gate(GateKind.CX, (a, b)), *triple, Gate(GateKind.CX, (a, b))],
            extra,
        )
    if k is GateKind.SWAP:
        a, b = g.targets
        return (
            [Gate(GateKind.CX, (a, b)), Gate(GateKind.CX, (b, a)), Gate(GateKind.CX, (a, b))],
            0.0,
        )
    raise ValueError(f"no redundant lowering for {k}")


def _lower(g: Gate, profile: GateSetProfile) -> tuple[list[Gate], float]:
    """Expansion and phase of one gate, checked before anything uses it.

    Every emitted gate must be native and act only on ``g``'s targets.
    """
    rule = _lower_efficient if profile.native_2q is GateKind.ZZ else _lower_redundant
    expansion, phase = rule(g)
    allowed = frozenset(g.targets)
    for out in expansion:
        native = profile.native_1q if out.arity == 1 else {profile.native_2q}
        if out.kind not in native:
            raise AssertionError(f"lowering emitted non-native {out.kind}")
        if not allowed.issuperset(out.targets):
            raise AssertionError(f"lowering of {g} emitted {out} on a foreign qubit")
    return expansion, phase


def transpile(circuit: Circuit, profile: GateSetProfile) -> TranspileResult:
    """Lower every gate to the profile's native set; tracks global phase."""
    gates: list[Gate] = []
    phase = 0.0
    for g in circuit.gates:
        expansion, extra = _lower(g, profile)
        gates += expansion
        phase += extra
    out = Circuit(circuit.width, tuple(gates))
    return TranspileResult(
        circuit=out,
        global_phase=phase % (2 * math.pi),
        census=census(out),
    )


@cache
def _census_per_kind(profile: GateSetProfile) -> dict[GateKind, tuple[int, int]]:
    """(n_1q, n_2q) that one gate of each kind lowers to under ``profile``."""
    table = {}
    for kind in GateKind:
        targets = (0,) if kind in ONE_QUBIT_KINDS else (0, 1)
        theta = 1.0 if kind in PARAMETRIC_KINDS else None
        expansion, _ = _lower(Gate(kind, targets, theta), profile)
        n_2q = sum(out.arity == 2 for out in expansion)
        table[kind] = (len(expansion) - n_2q, n_2q)
    return table


_kind = attrgetter("kind")


def _counted_census(gates: tuple[Gate, ...], profile: GateSetProfile) -> GateCensus:
    """The lowered census of ``gates``, from a count of their kinds."""
    table = _census_per_kind(profile)
    n_1q = n_2q = 0
    for kind, count in Counter(map(_kind, gates)).items():
        per_1q, per_2q = table[kind]
        n_1q += per_1q * count
        n_2q += per_2q * count
    return GateCensus(n_1q=n_1q, n_2q=n_2q)


@cache
def _body_census(q: int, profile: GateSetProfile) -> GateCensus:
    """The lowered census of the benchmark body every input of width ``q`` shares."""
    return _counted_census(_benchmark_body(q), profile)


def lowered_census(circuit: Circuit, profile: GateSetProfile) -> GateCensus:
    """``transpile(circuit, profile).census``, counted without lowering a gate.

    A circuit whose gates are exactly a benchmark's (``benchmark_input``, the
    test ``ideal_distribution`` makes) lowers to its width's body, counted
    once per width and profile, plus one X per set bit of its input.  Any
    other circuit has its gates counted by kind.
    """
    n = benchmark_input(circuit)
    if n is None:
        return _counted_census(circuit.gates, profile)
    body = _body_census(circuit.width, profile)
    x_1q, x_2q = _census_per_kind(profile)[GateKind.X]
    bits = n.bit_count()
    return GateCensus(n_1q=body.n_1q + x_1q * bits, n_2q=body.n_2q + x_2q * bits)

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

Because rules fire gate by gate, each distinct source gate is lowered once
and its expansion reused from a ``LoweringMemo``.  A memo lives as long as
something holds it (each ``SimProvider`` holds the one for its profile), so
a campaign lowers each distinct gate once and frees the memo when it ends.
The memo checks each expansion when it stores it, so ``transpile`` neither
range-checks nor counts its output gate by gate.
"""

from __future__ import annotations

import cmath
import math
import weakref
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .circuit import Circuit, Gate, GateCensus, GateKind, build_benchmark, census
from .simulator import gate_matrix, run_statevector


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
    source_census: GateCensus
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


def _euler_angles(gate: Gate) -> tuple[float, float, float, float]:
    return euler_zyz(gate_matrix(gate))


_Euler = Callable[[Gate], tuple[float, float, float, float]]


def _euler_triple(gate: Gate, euler: _Euler = _euler_angles) -> tuple[list[Gate], float]:
    """Full ZYZ expansion of a one-qubit gate, zero angles included."""
    alpha, phi, theta, lam = euler(gate)
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


def _lower_redundant(g: Gate, euler: _Euler = _euler_angles) -> tuple[list[Gate], float]:
    k = g.kind
    if g.arity == 1:
        # every one-qubit gate goes through the Euler canonicalizer, even
        # native rotations; identity-angle padding is emitted on purpose
        return _euler_triple(g, euler)
    if k is GateKind.CX:
        return [g], 0.0
    if k is GateKind.CP:
        a, b = g.targets
        t = g.theta
        out: list[Gate] = []
        phase = t / 4
        for rz_target, angle, cx_after in ((a, t / 2, True), (b, -t / 2, True), (b, t / 2, False)):
            triple, extra = _euler_triple(Gate(GateKind.RZ, (rz_target,), angle), euler)
            out += triple
            phase += extra
            if cx_after:
                out.append(Gate(GateKind.CX, (a, b)))
        return out, phase
    if k is GateKind.ZZ:
        a, b = g.targets
        triple, extra = _euler_triple(Gate(GateKind.RZ, (b,), g.theta), euler)
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


_Lowering = tuple[tuple[Gate, ...], float, int]  # expansion, phase, one-qubit count


class LoweringMemo:
    """Lowerings of distinct source gates under one profile.

    A key is the gate's value plus the sign of its angle, because
    ``-0.0 == 0.0`` while the two can lower to different angle bits.  Euler
    angles are held too, keyed the same way without the targets, so gates
    that differ only in where they act share one ``euler_zyz`` call.
    """

    __slots__ = ("profile", "entries", "angles", "__weakref__")

    def __init__(self, profile: GateSetProfile) -> None:
        self.profile = profile
        self.entries: dict[tuple, _Lowering] = {}
        self.angles: dict[tuple, tuple[float, float, float, float]] = {}

    def _euler(self, g: Gate) -> tuple[float, float, float, float]:
        theta = g.theta
        key = (g.kind, theta, theta is not None and math.copysign(1.0, theta))
        angles = self.angles.get(key)
        if angles is None:
            angles = self.angles[key] = _euler_angles(g)
        return angles

    def lower(self, g: Gate) -> _Lowering:
        """Lower one gate and check, once per distinct gate, its output.

        Every emitted gate must be native and act only on ``g``'s targets,
        so a lowered circuit needs no range check of its own.
        """
        if self.profile.native_2q is GateKind.ZZ:
            expansion, phase = _lower_efficient(g)
        else:
            expansion, phase = _lower_redundant(g, self._euler)
        n_1q = 0
        allowed = frozenset(g.targets)
        for out in expansion:
            native = self.profile.native_1q if out.arity == 1 else {self.profile.native_2q}
            if out.kind not in native:
                raise AssertionError(f"lowering emitted non-native {out.kind}")
            if not allowed.issuperset(out.targets):
                raise AssertionError(f"lowering of {g} emitted {out} on a foreign qubit")
            n_1q += out.arity == 1
        return tuple(expansion), phase, n_1q


_MEMOS: weakref.WeakValueDictionary[GateSetProfile, LoweringMemo] = (
    weakref.WeakValueDictionary()
)


def lowering_memo(profile: GateSetProfile) -> LoweringMemo:
    """The live memo for ``profile``, made if nothing holds one.

    Holding the result keeps lowerings across ``transpile`` calls; once
    nothing holds it, it is freed.
    """
    memo = _MEMOS.get(profile)
    if memo is None:
        memo = _MEMOS[profile] = LoweringMemo(profile)
    return memo


def transpile(circuit: Circuit, profile: GateSetProfile) -> TranspileResult:
    """Lower every gate to the profile's native set; tracks global phase."""
    memo = lowering_memo(profile)
    entries = memo.entries
    gates: list[Gate] = []
    phase = 0.0
    n_1q = 0
    for g in circuit.gates:
        theta = g.theta
        key = (g.kind, g.targets, theta, theta is not None and math.copysign(1.0, theta))
        hit = entries.get(key)
        if hit is None:
            hit = entries[key] = memo.lower(g)
        expansion, extra, ones = hit
        gates += expansion
        phase += extra
        n_1q += ones
    lowered_census = GateCensus(n_1q=n_1q, n_2q=len(gates) - n_1q)
    out = Circuit._lowered(
        circuit.width,
        tuple(gates),
        {**circuit.metadata, "profile": profile.name},
        lowered_census,
    )
    return TranspileResult(
        circuit=out,
        global_phase=phase % (2 * math.pi),
        source_census=census(circuit),
        census=lowered_census,
    )


def verify_equivalence(a: Circuit, b: Circuit, *, seed: int = 20240917, inputs: int = 8) -> float:
    """Minimum state overlap |<psi_a|psi_b>|^2 across probe inputs.

    Probes are the all-zeros state plus ``inputs`` random product states
    (seeded RY/RZ pair per qubit prepended to both circuits).  Insensitive to
    global phase.  Capped at 10 qubits.
    """
    if a.width != b.width:
        raise ValueError("circuits must have equal width")
    if a.width > 10:
        raise ValueError("equivalence check capped at 10 qubits")
    rng = np.random.default_rng(seed)
    preps: list[list[Gate]] = [[]]
    for _ in range(inputs):
        prep: list[Gate] = []
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


def check_gate_limit(total_gates: int, limit: int | None) -> bool:
    """True when the circuit fits; a limit of None never rejects."""
    return limit is None or total_gates <= limit


@cache
def default_gate_limit(accept_q: int = 16, reject_q: int = 18) -> int:
    """Submission gate cap splitting two benchmark widths under REDUNDANT.

    Computed as the midpoint between the largest possible accept_q total
    (all input bits set) and the smallest possible reject_q total (input 0),
    so acceptance depends only on width, never on the benchmark input.
    """
    held = lowering_memo(REDUNDANT)  # the two lowerings share their ladder gates
    hi = transpile(build_benchmark(accept_q, (1 << accept_q) - 1), REDUNDANT).census.total
    lo = transpile(build_benchmark(reject_q, 0), REDUNDANT).census.total
    if hi >= lo:
        raise ValueError(f"widths {accept_q}/{reject_q} do not separate")
    return (hi + lo) // 2

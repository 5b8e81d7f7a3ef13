"""Dense statevector simulation, shot sampling, and the two noise channels.

State layout follows the package bit-order convention: amplitude index v is
the integer sum(bit_i << i). Reshaping a 2**q vector to [2]*q puts qubit
q-1-j on tensor axis j (numpy C order, most significant axis first).

Every evolution (a statevector, a unitary's columns, a noisy trajectory) goes
through the one kernel ``_evolve``. ``_ground`` caps widths at 24 qubits (a
complex128 vector at 24 qubits is 256 MiB; anything wider is out of
desk-scale scope). Noise is modeled at two levels:

* ``GlobalDepolarizing(f_2qg)`` works at the distribution level: each shot is
  drawn from the ideal output distribution with probability f_2qg ** n_2q and
  from the uniform distribution otherwise.  For benchmark circuits the ideal
  distribution is the analytic single-outcome delta, so this channel runs at
  any width the target machine supports.  It reads no gate past that, so a
  provider pairs the source benchmark with its lowering's two-qubit count.
* ``PauliTrajectory(p)`` samples trajectories: in each shot, after every
  two-qubit gate a uniformly random non-identity two-qubit Pauli is applied
  with probability p, and one measurement is drawn from the final state.
  The shots run in chunks of consecutive shots.  A chunk first draws its
  shots' numbers in the order a shot-by-shot loop draws them (per shot: one
  ``random`` per two-qubit gate, one ``integers`` per error, then the one
  uniform that loop's ``choice`` draws).  Its shots then evolve together on a
  trailing batch axis, each error applied to its own shot's slice, and each
  outcome is picked from its shot's uniform by ``choice``'s own rule (the
  first index whose normalised cumulative probability exceeds it), so the
  counts are the loop's.  A chunk's kernel working set (the tensor,
  tensordot's transposed copy of it and its output) stays under
  ``_TRAJECTORY_BYTES``, 64 MiB: 85 shots a chunk at q = 14 and one at
  q = 20.  From q = 21 up a chunk is one shot, which alone exceeds the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, GateKind, benchmark_input, census, ideal_output

MAX_WIDTH = 24
_NORM_TOL = 1e-9
# the bytes a trajectory run's batch of shot states may take while it evolves,
# tensordot's copies included
_TRAJECTORY_BYTES = 64 << 20

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_PAULI_1Q = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# all 15 non-identity two-qubit Paulis, as (left, right) factor indices
_PAULI_2Q_PAIRS = tuple((a, b) for a in range(4) for b in range(4) if (a, b) != (0, 0))
# the same Paulis as 4x4 matrices on (t0, t1): every entry is 0, +-1 or +-i, so
# one of them changes amplitudes exactly as its two factors applied in turn do
_PAULI_2Q = tuple(np.kron(_PAULI_1Q[a], _PAULI_1Q[b]) for a, b in _PAULI_2Q_PAIRS)


def gate_matrix(gate: Gate) -> np.ndarray:
    """Dense matrix of one gate; 4x4 matrices use basis |t0 t1> (t0 is the high bit)."""
    k, th = gate.kind, gate.theta
    if k is GateKind.X:
        return _PAULI_1Q[1]
    if k is GateKind.H:
        return np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=complex)
    if k is GateKind.P:
        return np.array([[1, 0], [0, np.exp(1j * th)]], dtype=complex)
    if k is GateKind.RZ:
        return np.array([[np.exp(-1j * th / 2), 0], [0, np.exp(1j * th / 2)]], dtype=complex)
    if k is GateKind.RX:
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if k is GateKind.RY:
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if k is GateKind.CP:
        return np.diag([1, 1, 1, np.exp(1j * th)]).astype(complex)
    if k is GateKind.CX:
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    if k is GateKind.ZZ:
        e = np.exp(-1j * th / 2)
        return np.diag([e, e.conjugate(), e.conjugate(), e]).astype(complex)
    if k is GateKind.SWAP:
        return np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
    raise ValueError(f"unknown gate kind {k}")


def _ground(width: int, *batch: int) -> np.ndarray:
    """|0...0> as a ``[2]*width`` tensor, one copy per trailing ``batch`` index;
    the one place the width cap is checked."""
    if width > MAX_WIDTH:
        raise ValueError(f"width {width} exceeds simulator cap {MAX_WIDTH}")
    state = np.zeros([2] * width + list(batch), dtype=complex)
    state[(0,) * width] = 1.0
    return state


def _evolve(t: np.ndarray, width: int, ops) -> np.ndarray:
    """Apply ``(matrix, targets)`` ops in order to ``t``, a ``[2]*width`` tensor
    with any trailing batch axes; ``t`` itself is never mutated."""
    for mat, targets in ops:
        k = len(targets)
        axes = [width - 1 - q for q in targets]
        t = np.tensordot(mat.reshape([2] * 2 * k), t, axes=(list(range(k, 2 * k)), axes))
        t = np.moveaxis(t, list(range(k)), axes)
    return t


def _bitstrings(vals: np.ndarray, width: int) -> list[str]:
    """``format(v, f"0{width}b")`` of each value, rendered in one numpy pass.

    Each row of ``width`` code points is viewed as one fixed-width string.
    """
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = (np.asarray(vals, dtype=np.uint64)[:, None] >> shifts) & 1
    return (bits.astype(np.uint32) + ord("0")).view(f"U{width}").ravel().tolist()


def _ops(circuit: Circuit) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    return [(gate_matrix(g), g.targets) for g in circuit.gates]


def run_statevector(circuit: Circuit) -> np.ndarray:
    """Apply all gates to |0...0>; returns the 2**width amplitude vector."""
    state = _evolve(_ground(circuit.width), circuit.width, _ops(circuit)).reshape(-1)
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > _NORM_TOL:
        raise ArithmeticError(f"statevector norm drifted to {norm!r}")
    return state


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full unitary of a small circuit (width <= 10); for equivalence checks."""
    if circuit.width > 10:
        raise ValueError("unitary construction capped at 10 qubits")
    dim = 1 << circuit.width
    # basis columns ride along as a trailing batch axis
    u = np.eye(dim, dtype=complex).reshape([2] * circuit.width + [dim])
    return _evolve(u, circuit.width, _ops(circuit)).reshape(dim, dim)


def sample(state: np.ndarray, shots: int, seed: int) -> dict[str, int]:
    """Multinomial shot sampling; keys are MSB-first bitstrings, ascending."""
    if type(shots) is not int or shots < 0:
        raise ValueError(f"shots {shots!r} is not an int >= 0")
    width = len(state).bit_length() - 1
    if width < 1:
        raise ValueError("width must be >= 1")
    if 1 << width != len(state):
        raise ValueError("state length is not a power of two")
    probs = np.abs(state) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    hits = rng.multinomial(shots, probs)
    seen = np.flatnonzero(hits)
    return dict(zip(_bitstrings(seen, width), hits[seen].tolist()))


# --- noise -------------------------------------------------------------------


@dataclass(frozen=True)
class GlobalDepolarizing:
    """Zero-order device model: circuit fidelity f_2qg ** n_2q, uniform otherwise."""

    f_2qg: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.f_2qg <= 1.0:
            raise ValueError("f_2qg must be in [0, 1]")


@dataclass(frozen=True)
class PauliTrajectory:
    """Per-gate error injection with probability p after each two-qubit gate."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")


NoiseSpec = GlobalDepolarizing | PauliTrajectory


def ideal_distribution(circuit: Circuit) -> dict[str, float]:
    """Exact output distribution; analytic delta for benchmark circuits.

    A circuit whose gates are exactly a benchmark's concentrates on a single
    outcome, so no statevector is needed and any width is supported.  Every
    other circuit, a lowered benchmark included, is simulated (subject to
    MAX_WIDTH).
    """
    n = benchmark_input(circuit)
    if n is not None:
        return {ideal_output(circuit.width, n): 1.0}
    probs = np.abs(run_statevector(circuit)) ** 2
    probs = probs / probs.sum()
    support = np.flatnonzero(probs > 1e-15)
    return dict(zip(_bitstrings(support, circuit.width), probs[support].tolist()))


def run_noisy(
    circuit: Circuit, noise: NoiseSpec, shots: int, seed: int
) -> dict[str, int]:
    """Sample ``shots`` measurements from the circuit under the given channel."""
    if type(shots) is not int or shots < 0:
        raise ValueError(f"shots {shots!r} is not an int >= 0")
    if isinstance(noise, GlobalDepolarizing):
        return sample_depolarized(circuit, census(circuit).n_2q, noise, shots, seed)
    if isinstance(noise, PauliTrajectory):
        return _run_trajectories(circuit, noise.p, shots, np.random.default_rng(seed))
    raise TypeError(f"unknown noise spec {noise!r}")


def sample_depolarized(
    circuit: Circuit, n_2q: int, noise: GlobalDepolarizing, shots: int, seed: int
) -> dict[str, int]:
    """``GlobalDepolarizing`` counts for a circuit that ran ``n_2q`` two-qubit gates.

    The channel reads no gate past the ideal distribution, so a lowering's
    two-qubit count can be paired with its source circuit.  The draws are, in
    order: how many shots are clean (``binomial``, skipped when there are no
    shots), where the clean ones fall on the sorted ideal support
    (``multinomial``, skipped when no shot is clean or the support is one
    outcome, where it would draw nothing), and one uniform outcome per
    scrambled shot (``integers``).  Every shot's outcome value is then tallied
    in one ``np.unique`` and each distinct value rendered once, so the keys
    come out ascending.  Outcome values are held as 64-bit integers.
    """
    for name, value in (("shots", shots), ("n_2q", n_2q)):
        if type(value) is not int or value < 0:
            raise ValueError(f"{name} {value!r} is not an int >= 0")
    ideal = ideal_distribution(circuit)
    return _sample_depolarized(ideal, circuit.width, n_2q, noise, shots, seed)


def _sample_depolarized(
    ideal: dict[str, float], width: int, n_2q: int, noise: GlobalDepolarizing, shots: int, seed: int
) -> dict[str, int]:
    """``sample_depolarized`` given the circuit's ideal distribution and width."""
    rng = np.random.default_rng(seed)
    clean = int(rng.binomial(shots, noise.f_2qg**n_2q)) if shots else 0
    outcomes = np.empty(shots, dtype=np.uint64)
    if len(ideal) == 1:  # every benchmark's; a one-category multinomial draws nothing
        (key,) = ideal
        outcomes[:clean] = int(key, 2)
    elif clean:
        keys = sorted(ideal)
        pvals = np.array([ideal[k] for k in keys], dtype=float)
        hits = rng.multinomial(clean, pvals / pvals.sum())
        support = np.array([int(k, 2) for k in keys], dtype=np.uint64)
        outcomes[:clean] = np.repeat(support, hits)
    if clean < shots:
        outcomes[clean:] = rng.integers(0, 1 << width, size=shots - clean)
    vals, reps = np.unique(outcomes, return_counts=True)
    return dict(zip(_bitstrings(vals, width), reps.tolist()))


def _run_trajectories(
    circuit: Circuit, p: float, shots: int, rng: np.random.Generator
) -> dict[str, int]:
    """``PauliTrajectory`` counts, one chunk of shots at a time (see the module
    docstring); no ``random`` is drawn when p is 0."""
    width = circuit.width
    ops = _ops(circuit)
    # one state's size, which also checks the width before anything is drawn
    per_chunk = max(1, _TRAJECTORY_BYTES // (3 * _ground(width).nbytes))
    two_qubit = [i for i, (_, targets) in enumerate(ops) if len(targets) == 2] if p > 0.0 else []
    outcomes = np.empty(shots, dtype=np.int64)
    for lo in range(0, shots, per_chunk):
        n = min(per_chunk, shots - lo)
        injected: dict[int, list[tuple[int, int]]] = {}  # op index -> (column, index into _PAULI_2Q)
        uniforms = []
        for col in range(n):  # the draws of a shot-by-shot loop, in its order
            for i in two_qubit:
                if rng.random() < p:
                    injected.setdefault(i, []).append((col, rng.integers(0, len(_PAULI_2Q))))
            uniforms.append(rng.random())  # the one uniform the loop's ``choice`` draws
        t = _ground(width, n)
        for i, op in enumerate(ops):
            t = _evolve(t, width, [op])
            for col, k in injected.get(i, ()):
                t[..., col] = _evolve(t[..., col], width, [(_PAULI_2Q[k], op[1])])
        for col, u in enumerate(uniforms):
            # a contiguous copy, like the loop's state, so abs and sum round alike
            probs = np.abs(t[..., col].flatten()) ** 2
            probs /= probs.sum()
            # ``choice``'s rule, in place: the cumulative sum over its last entry
            cdf = np.cumsum(probs, out=probs)
            cdf /= cdf[-1]
            outcomes[lo + col] = cdf.searchsorted(u, side="right")
    vals, reps = np.unique(outcomes, return_counts=True)
    return dict(zip(_bitstrings(vals, width), reps.tolist()))

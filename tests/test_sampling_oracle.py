"""Differential oracles for per-job sampling and scoring.

``oracle_sample_depolarized`` draws the clean shots through
``oracle_sample_from_distribution``, renders each scrambled outcome with
``format``, folds both shot groups into one dict through ``oracle_merge`` and
sorts it; ``oracle_hellinger_fidelity`` sums over the union of both supports.
Those were the per-outcome Python paths before rendering became one numpy
pass (``simulator._bitstrings``), both shot groups one ``np.unique`` tally, and
scoring a sum over the shared support;
``oracle_presorted_sample_depolarized`` is the tally before a one-outcome
ideal skipped the sort, the weights and the ``multinomial``;
``oracle_sample``, ``oracle_ideal_distribution`` and the kernel oracle's
trajectory loop render the same way.  The fast paths must give the same
counts in the same key order, the same ideal distributions, and, for a
one-key reference, the same fidelity float.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbench.analysis import benchmark_fidelity, hellinger_fidelity
from qbench.circuit import (
    Circuit,
    Gate,
    GateKind,
    ONE_QUBIT_KINDS,
    PARAMETRIC_KINDS,
    _benchmark_body,
    _x_prefix,
    build_benchmark,
    census,
    ideal_output,
    random_input,
)
from qbench.providers import PRESET_NAMES, JobStatus, SimProvider, target_profile
from qbench.rng import derive_seed
from qbench.simulator import (
    GlobalDepolarizing,
    PauliTrajectory,
    _bitstrings,
    _sample_depolarized,
    ideal_distribution,
    run_noisy,
    run_statevector,
    sample,
    sample_depolarized,
)
from qbench.transpiler import EFFICIENT, REDUNDANT, lowered_census, transpile
from test_kernel_oracle import oracle_run_trajectories


def oracle_merge(dst, src):
    for k, v in src.items():
        dst[k] = dst.get(k, 0) + v


def oracle_sample_from_distribution(dist, shots, rng):
    keys = sorted(dist)
    pvals = np.array([dist[k] for k in keys], dtype=float)
    pvals = pvals / pvals.sum()
    hits = rng.multinomial(shots, pvals)
    return {k: int(c) for k, c in zip(keys, hits) if c}


def oracle_ideal_distribution(circuit):
    probs = np.abs(run_statevector(circuit)) ** 2
    probs = probs / probs.sum()
    out = {}
    for v in np.flatnonzero(probs > 1e-15):
        out[format(int(v), f"0{circuit.width}b")] = float(probs[v])
    return out


def oracle_sample_depolarized(circuit, n_2q, noise, shots, seed):
    rng = np.random.default_rng(seed)
    p_clean = noise.f_2qg**n_2q
    ideal = ideal_distribution(circuit)
    clean = int(rng.binomial(shots, p_clean)) if shots else 0
    counts = {}
    if clean:
        oracle_merge(counts, oracle_sample_from_distribution(ideal, clean, rng))
    scrambled = shots - clean
    if scrambled:
        draws = rng.integers(0, 1 << circuit.width, size=scrambled)
        vals, reps = np.unique(draws, return_counts=True)
        oracle_merge(
            counts,
            {format(int(v), f"0{circuit.width}b"): int(c) for v, c in zip(vals, reps)},
        )
    return dict(sorted(counts.items()))


def oracle_presorted_sample_depolarized(ideal, width, n_2q, noise, shots, seed):
    rng = np.random.default_rng(seed)
    p_clean = noise.f_2qg**n_2q
    clean = int(rng.binomial(shots, p_clean)) if shots else 0
    outcomes = np.empty(shots, dtype=np.uint64)
    if clean:
        keys = sorted(ideal)
        pvals = np.array([ideal[k] for k in keys], dtype=float)
        hits = rng.multinomial(clean, pvals / pvals.sum())
        support = np.array([int(k, 2) for k in keys], dtype=np.uint64)
        outcomes[:clean] = np.repeat(support, hits)
    if clean < shots:
        outcomes[clean:] = rng.integers(0, 1 << width, size=shots - clean)
    vals, reps = np.unique(outcomes, return_counts=True)
    return {format(int(v), f"0{width}b"): int(c) for v, c in zip(vals, reps)}


def oracle_sample(state, shots, seed):
    width = int(round(math.log2(len(state))))
    probs = np.abs(state) ** 2
    probs = probs / probs.sum()
    hits = np.random.default_rng(seed).multinomial(shots, probs)
    out = {}
    for v in np.flatnonzero(hits):
        out[format(int(v), f"0{width}b")] = int(hits[v])
    return out


def oracle_hellinger_fidelity(p, q):
    pt = float(sum(p.values()))
    qt = float(sum(q.values()))
    if pt <= 0 or qt <= 0:
        raise ValueError("distributions must have positive mass")
    bc = 0.0
    for key in p.keys() | q.keys():
        bc += math.sqrt((p.get(key, 0) / pt) * (q.get(key, 0) / qt))
    return bc * bc


def assert_same_counts(got, want):
    assert got == want
    assert list(got) == list(want)  # the same key order, not only the same items
    assert all(type(c) is int for c in got.values())


PRESET_F_2QG = sorted({target_profile(name).noise.f_2qg for name in PRESET_NAMES})


def random_circuit(width, n_gates, seed):
    """Gates of every kind on ``width`` qubits; its ideal distribution has many keys."""
    rng = random.Random(seed)
    kinds = list(GateKind)
    gates = [Gate(GateKind.H, (i,)) for i in range(width)]
    while len(gates) < n_gates:
        kind = rng.choice(kinds)
        arity = 1 if kind in ONE_QUBIT_KINDS else 2
        if arity > width:
            continue
        theta = rng.uniform(-math.pi, math.pi) if kind in PARAMETRIC_KINDS else None
        gates.append(Gate(kind, tuple(rng.sample(range(width), arity)), theta))
    return Circuit(width, tuple(gates))


@pytest.mark.parametrize("q", range(2, 61))
def test_benchmark_counts_match_oracle(q):
    profile = target_profile(PRESET_NAMES[q % len(PRESET_NAMES)]).gate_profile
    for seed in (1, q):
        circuit = build_benchmark(q, random_input(q, seed))
        n_2q = lowered_census(circuit, profile).n_2q
        for f_2qg in (0.0, PRESET_F_2QG[q % len(PRESET_F_2QG)], 1.0):
            noise = GlobalDepolarizing(f_2qg)
            for shots in (0, 1, 500):
                got = sample_depolarized(circuit, n_2q, noise, shots, seed)
                want = oracle_sample_depolarized(circuit, n_2q, noise, shots, seed)
                assert_same_counts(got, want)
                assert sum(got.values()) == shots


# the channel's fidelities: none, garnet's, aria's, and perfect
DEPOLARIZING_F_2QG = (0.0, 0.97, 0.9995, 1.0)


@pytest.mark.parametrize("q", range(1, 37))
def test_one_point_ideals_match_the_presorted_oracle(q):
    profile = (EFFICIENT, REDUNDANT)[q % 2]
    for seed in (2, q + 40):
        n = random_input(q, seed)
        circuit = build_benchmark(q, n)
        ideal = ideal_distribution(circuit)
        assert ideal == {ideal_output(q, n): 1.0}
        # the lowered count, and one two-qubit gate so that clean and scrambled shots mix
        for n_2q in (lowered_census(circuit, profile).n_2q, 1):
            for f_2qg in DEPOLARIZING_F_2QG:
                noise = GlobalDepolarizing(f_2qg)
                for shots in (0, 1, 500):
                    args = (n_2q, noise, shots, seed)
                    want = oracle_presorted_sample_depolarized(ideal, q, *args)
                    assert_same_counts(sample_depolarized(circuit, *args), want)
                    assert_same_counts(_sample_depolarized(ideal, q, *args), want)


@pytest.mark.parametrize("q", range(1, 9))
def test_lowered_ideals_match_the_presorted_oracle(q):
    # a lowered benchmark is simulated, so its ideal comes from a statevector
    for profile in (EFFICIENT, REDUNDANT):
        lowered = transpile(build_benchmark(q, random_input(q, q)), profile).circuit
        ideal = ideal_distribution(lowered)
        for f_2qg in DEPOLARIZING_F_2QG:
            noise = GlobalDepolarizing(f_2qg)
            for shots in (0, 1, 500):
                want = oracle_presorted_sample_depolarized(ideal, q, 2, noise, shots, q)
                assert_same_counts(sample_depolarized(lowered, 2, noise, shots, q), want)


@settings(max_examples=300, deadline=None)
@given(
    st.data(),
    st.integers(1, 36),
    st.sampled_from(DEPOLARIZING_F_2QG),
    st.integers(0, 40),
    st.sampled_from((0, 1, 500)),
    st.integers(0, 2**64 - 1),
)
def test_multi_point_ideals_match_the_presorted_oracle(data, width, f_2qg, n_2q, shots, seed):
    values = data.draw(st.sets(st.integers(0, (1 << width) - 1), min_size=1, max_size=24))
    weights = data.draw(st.lists(st.floats(1e-6, 1.0), min_size=len(values), max_size=len(values)))
    ideal = {format(v, f"0{width}b"): w for v, w in zip(values, weights)}
    noise = GlobalDepolarizing(f_2qg)
    want = oracle_presorted_sample_depolarized(ideal, width, n_2q, noise, shots, seed)
    assert_same_counts(_sample_depolarized(ideal, width, n_2q, noise, shots, seed), want)


RUNNING_PRESETS = [
    name for name in PRESET_NAMES if target_profile(name).schedule.next_available_at(0) is not None
]


@pytest.mark.parametrize("name", RUNNING_PRESETS)
def test_provider_counts_match_the_presorted_oracle(name):
    # a benchmark takes the one-outcome path, any other circuit its simulated ideal
    target = target_profile(name)
    for circuit in (build_benchmark(6, 45), random_circuit(6, 24, 3)):
        provider = SimProvider(target)
        handle = provider.submit(circuit, 500, 0, seed=9, job_id="j")
        result = provider.poll(handle, handle.exec_end)
        assert result.status is JobStatus.PROCESSED, result
        shots_seed = derive_seed(9, "shots")
        want = oracle_presorted_sample_depolarized(
            ideal_distribution(circuit), 6, handle.census.n_2q, target.noise, 500, shots_seed
        )
        assert_same_counts(result.counts, want)


@pytest.mark.parametrize("f_2qg", PRESET_F_2QG)
def test_small_benchmarks_mix_clean_and_scrambled_hits_like_the_oracle(f_2qg):
    # at q = 2..4 with a shallow count, clean hits land on keys the scrambled draws also hit
    for q in (2, 3, 4):
        circuit = build_benchmark(q, 1)
        for n_2q in (1, 4, census(circuit).n_2q):
            for seed in range(8):
                noise = GlobalDepolarizing(f_2qg)
                got = sample_depolarized(circuit, n_2q, noise, 500, seed)
                assert_same_counts(got, oracle_sample_depolarized(circuit, n_2q, noise, 500, seed))
                assert ideal_output(q, 1) in got


@pytest.mark.parametrize("width", [1, 2, 3, 4, 6, 8])
def test_non_benchmark_counts_match_oracle(width):
    for seed in range(6):
        circuit = random_circuit(width, 4 * width, seed)
        ideal = ideal_distribution(circuit)
        assert ideal == oracle_ideal_distribution(circuit)
        assert list(ideal) == list(oracle_ideal_distribution(circuit))
        n_2q = census(circuit).n_2q
        for f_2qg in (0.0, 0.9, 0.99, 1.0):
            noise = GlobalDepolarizing(f_2qg)
            for shots in (0, 1, 500):
                got = sample_depolarized(circuit, n_2q, noise, shots, seed)
                want = oracle_sample_depolarized(circuit, n_2q, noise, shots, seed)
                assert_same_counts(got, want)
                args = (n_2q, noise, shots, seed)
                assert_same_counts(got, oracle_presorted_sample_depolarized(ideal, width, *args))


def test_uniform_superposition_collides_on_every_key():
    # the ideal support is every outcome, so each clean key is also a scrambled key
    circuit = Circuit(3, tuple(Gate(GateKind.H, (i,)) for i in range(3)))
    assert len(ideal_distribution(circuit)) == 8
    for seed in range(10):
        got = sample_depolarized(circuit, 3, GlobalDepolarizing(0.8), 500, seed)
        want = oracle_sample_depolarized(circuit, 3, GlobalDepolarizing(0.8), 500, seed)
        assert_same_counts(got, want)
        assert len(got) == 8


@pytest.mark.parametrize("width", [1, 3, 5, 8])
def test_sample_matches_oracle(width):
    for seed in range(4):
        state = run_statevector(random_circuit(width, 3 * width, seed))
        for shots in (0, 1, 500):
            assert_same_counts(sample(state, shots, seed), oracle_sample(state, shots, seed))


@pytest.mark.parametrize("p", [0.0, 0.3])
def test_trajectory_counts_match_oracle_in_key_order(p):
    circuit = random_circuit(4, 12, 3)
    for shots in (0, 1, 60):
        got = run_noisy(circuit, PauliTrajectory(p), shots, 5)
        assert_same_counts(got, oracle_run_trajectories(circuit, p, shots, 5))


@pytest.mark.parametrize("q", [2, 5, 12, 36, 60])
def test_one_key_reference_fidelity_is_bit_identical(q):
    noise = GlobalDepolarizing(PRESET_F_2QG[0])
    for seed in range(5):
        n = random_input(q, seed)
        circuit = build_benchmark(q, n)
        counts = sample_depolarized(circuit, census(circuit).n_2q // 8, noise, 500, seed)
        target = ideal_output(q, n)
        absent = format((n + 2) % (1 << q), f"0{q}b")
        for ref in (target, absent, next(iter(counts))):
            want = oracle_hellinger_fidelity(counts, {ref: 1.0})
            assert hellinger_fidelity(counts, {ref: 1.0}) == want
            flipped = oracle_hellinger_fidelity({ref: 1.0}, counts)
            assert hellinger_fidelity({ref: 1.0}, counts) == flipped
        want = oracle_hellinger_fidelity(counts, {target: 1.0})
        assert benchmark_fidelity(counts, q, n) == want


def test_reference_key_absent_scores_exactly_zero():
    counts = {"0001": 250, "0110": 250}
    assert hellinger_fidelity(counts, {"1111": 1.0}) == 0.0
    assert oracle_hellinger_fidelity(counts, {"1111": 1.0}) == 0.0


def test_multi_key_fidelity_matches_oracle():
    rng = random.Random(5)
    for _ in range(300):
        width = rng.randint(1, 6)
        keys = [format(v, f"0{width}b") for v in range(1 << width)]
        p = {k: rng.randint(0, 50) for k in rng.sample(keys, rng.randint(1, len(keys)))}
        q = {k: rng.random() for k in rng.sample(keys, rng.randint(1, len(keys)))}
        if sum(p.values()) == 0:
            continue
        assert abs(hellinger_fidelity(p, q) - oracle_hellinger_fidelity(p, q)) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 62))
def test_bitstrings_render_like_format(data, width):
    top = (1 << width) - 1
    vals = data.draw(st.lists(st.integers(0, top), max_size=40)) + [0, top]
    want = [format(v, f"0{width}b") for v in vals]
    assert _bitstrings(np.array(vals, dtype=np.int64), width) == want


def test_bitstrings_of_no_values():
    assert _bitstrings(np.array([], dtype=np.int64), 7) == []


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 60))
def test_build_benchmark_equals_the_checked_circuit(data, q):
    n = data.draw(st.sampled_from([0, (1 << q) - 1]) | st.integers(0, (1 << q) - 1))
    assert build_benchmark(q, n) == Circuit(q, _x_prefix(q, n) + _benchmark_body(q))


def test_circuit_still_refuses_a_gate_out_of_range():
    with pytest.raises(ValueError, match="out of range for width 4"):
        Circuit(4, build_benchmark(4, 3).gates + (Gate(GateKind.X, (4,)),))
    with pytest.raises(ValueError, match="out of range for width 3"):
        Circuit(3, build_benchmark(4, 3).gates)

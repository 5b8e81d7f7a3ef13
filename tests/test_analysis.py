import csv
import math
import random

import pytest

from qbench.analysis import (
    SUCCESS_THRESHOLD,
    aggregate,
    benchmark_fidelity,
    classify_success,
    debias_uniform_floor,
    hellinger_fidelity,
    infer_f2qg,
    queue_prediction,
    write_report,
)
from qbench.costing import Money
from qbench.providers import JobStatus

from test_store import make_record, processed_record


class TestHellinger:
    def test_worked_examples(self):
        assert hellinger_fidelity({"00": 7, "01": 3}, {"00": 7, "01": 3}) == pytest.approx(1.0, abs=1e-12)
        assert hellinger_fidelity({"00": 5}, {"11": 5}) == pytest.approx(0.0, abs=1e-12)
        got = hellinger_fidelity({"0": 0.5, "1": 0.5}, {"0": 1.0})
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValueError):
            hellinger_fidelity({}, {"0": 1})
        with pytest.raises(ValueError):
            hellinger_fidelity({"0": 1}, {"1": 0})

    def _random_pair(self, rng):
        keys = [format(v, "04b") for v in rng.sample(range(16), rng.randint(1, 12))]
        p = {k: rng.randint(1, 500) for k in keys}
        q_keys = [format(v, "04b") for v in rng.sample(range(16), rng.randint(1, 12))]
        q = {k: rng.randint(1, 500) for k in q_keys}
        return p, q

    def test_properties_on_random_pairs(self):
        rng = random.Random(42)
        for _ in range(300):
            p, q = self._random_pair(rng)
            f = hellinger_fidelity(p, q)
            assert -1e-12 <= f <= 1 + 1e-12
            assert f == pytest.approx(hellinger_fidelity(q, p), abs=1e-12)
            assert hellinger_fidelity(p, p) == pytest.approx(1.0, abs=1e-12)
            scaled = {k: 3 * v for k, v in q.items()}
            assert f == pytest.approx(hellinger_fidelity(p, scaled), abs=1e-12)

    def test_one_only_for_equal_normalized_distributions(self):
        p = {"0": 2, "1": 6}
        q = {"0": 1, "1": 3}  # same distribution, different mass
        assert hellinger_fidelity(p, q) == pytest.approx(1.0, abs=1e-12)
        r = {"0": 1, "1": 2}
        assert hellinger_fidelity(p, r) < 1 - 1e-9


class TestBenchmarkScore:
    def test_delta_counts_score_exactly_one(self):
        counts = {"00101": 500}
        assert benchmark_fidelity(counts, 5, 4) == 1.0  # ideal_output(5, 4) = 00101

    def test_scrambled_counts_score_near_zero(self):
        counts = {format(v, "05b"): 10 for v in range(20) if v != 5}
        assert benchmark_fidelity(counts, 5, 4) == 0.0


class TestThreshold:
    def test_documented_examples(self):
        assert classify_success(0.40)
        assert not classify_success(0.30)
        assert classify_success(math.exp(-1))  # boundary inclusive
        assert not classify_success(math.exp(-1) - 1e-12)

    def test_monotone(self):
        grid = [i / 1000 for i in range(1001)]
        flags = [classify_success(f) for f in grid]
        assert flags == sorted(flags)
        assert SUCCESS_THRESHOLD == pytest.approx(0.3678794, abs=1e-7)


class TestInference:
    def test_trivialities(self):
        assert infer_f2qg(1.0, 10) == 1.0
        assert infer_f2qg(0.81, 2) == pytest.approx(0.9, abs=1e-12)

    def test_undefined_cases_yield_no_estimate(self):
        assert infer_f2qg(0.0, 5) is None
        assert infer_f2qg(-0.1, 5) is None
        assert infer_f2qg(0.5, 0) is None

    @pytest.mark.parametrize("fidelity", [1.5, 1.0 + 1e-12, math.nan, math.inf])
    def test_a_fidelity_above_one_or_nan_is_refused(self, fidelity):
        with pytest.raises(ValueError, match="fidelity"):
            infer_f2qg(fidelity, 4)

    def test_algebraic_round_trip(self):
        for n in (1, 2, 7, 64, 513):
            for f in (0.999, 0.99, 0.9, 0.5, 0.05, 1.0):
                if f**n == 0.0:
                    continue  # underflows double precision; model undefined there
                assert infer_f2qg(f**n, n) == pytest.approx(f, abs=1e-12)

    def test_debias_removes_uniform_floor(self):
        q = 8
        for p_clean in (0.9, 0.3, 0.01):
            observed = p_clean + (1 - p_clean) / 2**q
            assert debias_uniform_floor(observed, q) == pytest.approx(p_clean, abs=1e-12)
        assert debias_uniform_floor(2**-q / 2, q) == 0.0  # clamps below the floor
        assert debias_uniform_floor(0.0, q) == 0.0
        assert debias_uniform_floor(1.0, q) == 1.0

    @pytest.mark.parametrize("q", [0, -1])
    def test_debias_refuses_a_width_below_one(self, q):
        with pytest.raises(ValueError, match="q must be"):
            debias_uniform_floor(0.5, q)

    @pytest.mark.parametrize("observed", [1.5, -0.1, math.nan])
    def test_debias_refuses_a_fidelity_outside_zero_to_one(self, observed):
        with pytest.raises(ValueError, match=r"not in \[0, 1\]"):
            debias_uniform_floor(observed, 8)


class TestAggregate:
    def test_two_point_fixture(self):
        group = dict(qubits=8, cloud="SimAWS", target="aria1-aws")
        records = [
            processed_record(0, fidelity=0.4, **group),
            processed_record(1, fidelity=0.6, **group),
        ]
        rows = aggregate(records)
        assert len(rows) == 1
        assert rows[0].mean_fidelity == pytest.approx(0.5, abs=1e-12)
        assert rows[0].fidelity_std == pytest.approx(0.1, abs=1e-12)
        assert rows[0].jobs == 2

    def test_flat_cost_has_zero_std(self):
        records = [processed_record(i, fidelity=0.8, cost=Money.from_usd("15.30")) for i in range(4)]
        rows = aggregate(records)
        for row in rows:
            assert row.mean_cost == Money.from_usd("15.30")
            assert row.cost_std == Money.zero()
            assert str(row.cost_std) == "$0.00"

    def test_single_record_std_zero(self):
        rows = aggregate([processed_record(0, fidelity=0.77)])
        assert rows[0].fidelity_std == 0.0
        assert rows[0].cost_std == Money.zero()

    def test_non_processed_records_excluded(self):
        records = [processed_record(0), make_record(1, status=JobStatus.ERROR)]
        rows = aggregate(records)
        assert sum(r.jobs for r in rows) == 1

    def test_matches_brute_force_oracle(self):
        rng = random.Random(12)
        records = [
            processed_record(
                i,
                fidelity=round(rng.random(), 6),
                cost=Money(rng.randrange(0, 40_000_000)),
            )
            for i in range(500)
        ]
        rows = aggregate(records)
        groups = {}
        for r in records:
            groups.setdefault((r.qubits, r.cloud, r.target), []).append(r)
        assert len(rows) == len(groups)
        assert [(r.qubits, r.cloud, r.target) for r in rows] == sorted(groups)
        for row in rows:
            members = groups[(row.qubits, row.cloud, row.target)]
            fids = [m.fidelity for m in members]
            mean = sum(fids) / len(fids)
            var = sum((f - mean) ** 2 for f in fids) / len(fids)
            assert row.mean_fidelity == pytest.approx(mean, abs=1e-12)
            assert row.fidelity_std == pytest.approx(math.sqrt(var), abs=1e-12)
            micros = [m.cost.micros for m in members]
            assert abs(row.mean_cost.micros - sum(micros) / len(micros)) <= 0.5
            assert row.jobs == len(members)


class TestQueuePrediction:
    def _pair(self, i, pred, actual):
        return processed_record(i, predicted_wait=pred, actual_wait=actual)

    def test_all_overestimated(self):
        records = [self._pair(i, 100.0, 10.0) for i in range(5)]
        assert queue_prediction(records).fraction_overestimated == 1.0

    def test_documented_36_percent(self):
        records = [self._pair(i, 100.0, 10.0) for i in range(36)]
        records += [self._pair(100 + i, 10.0, 100.0) for i in range(64)]
        assert queue_prediction(records).fraction_overestimated == pytest.approx(0.36)

    def test_ties_count_as_not_overestimated(self):
        records = [self._pair(i, 50.0, 50.0) for i in range(3)]
        assert queue_prediction(records).fraction_overestimated == 0.0

    def test_records_without_waits_are_skipped(self):
        records = [make_record(0), self._pair(1, 5.0, 1.0)]
        qp = queue_prediction(records)
        assert qp.fraction_overestimated == 1.0
        assert len(qp.pairs) == 1
        assert math.isnan(queue_prediction([make_record(2)]).fraction_overestimated)


class TestReports:
    def _fixture(self):
        records = [processed_record(i, fidelity=0.5 + 0.01 * (i % 10)) for i in range(12)]
        records.append(make_record(50, status=JobStatus.UNAVAILABLE, error_message="down"))
        return records

    def test_table6_columns_and_rows(self, tmp_path):
        out = tmp_path / "table6.csv"
        rows = write_report("table6", self._fixture(), out)
        with open(out, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == [
            "index", "qubits", "cloud", "target",
            "fidelity", "fid_std", "jobs", "cost", "cost_std",
        ]
        assert len(parsed) - 1 == rows
        assert [r[0] for r in parsed[1:]] == [str(i) for i in range(rows)]
        assert all(r[7] == "15.30" and r[8] == "0.00" for r in parsed[1:])

    def test_availability_counts_everything(self, tmp_path):
        out = tmp_path / "avail.csv"
        write_report("availability", self._fixture(), out)
        with open(out, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        total = sum(int(r["attempts"]) for r in parsed)
        assert total == 13
        down_rows = [r for r in parsed if int(r["unavailable"]) > 0]
        assert len(down_rows) == 1
        assert float(down_rows[0]["accepting_fraction"]) < 1.0

    def test_scatter_reports_cover_processed_rows(self, tmp_path):
        for kind in ("fidelity_vs_qubits", "fidelity_vs_time", "queue_prediction"):
            out = tmp_path / f"{kind}.csv"
            assert write_report(kind, self._fixture(), out) == 12

    def test_cost_vs_fidelity_is_grouped(self, tmp_path):
        out = tmp_path / "cvf.csv"
        rows = write_report("cost_vs_fidelity", self._fixture(), out)
        assert rows == len(aggregate(self._fixture()))

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_report("pie_chart", [], tmp_path / "x.csv")

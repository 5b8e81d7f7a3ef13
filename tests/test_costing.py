import decimal
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from qbench.circuit import GateCensus
from qbench.costing import (
    CreditBilling,
    GateRateBilling,
    Money,
    PerShotBilling,
    credit_charge,
)

IONQ = GateRateBilling(
    usd_1q=Money.from_usd("0.00022"),
    usd_2q=Money.from_usd("0.000975"),
    minimum=Money.from_usd("12.42"),
    minimum_mitigated=Money.from_usd("97.50"),
)
HQC_HW = CreditBilling(usd_per_credit=Money.from_usd("9.7941"))
HQC_EMU = CreditBilling(usd_per_credit=Money.from_usd("0.1088"))
ARIA = PerShotBilling(per_task=Money.from_usd("0.30"), per_shot=Money.from_usd("0.03"))
FORTE = PerShotBilling(per_task=Money.from_usd("0.30"), per_shot=Money.from_usd("0.08"))
GARNET = PerShotBilling(per_task=Money.from_usd("0.30"), per_shot=Money.from_usd("0.00145"))
# per-shot billing reads neither the census nor the width
ANY_CENSUS = GateCensus(100, 50)


class TestMoney:
    def test_from_usd_is_exact_for_table_prices(self):
        assert Money.from_usd("0.00022").micros == 220
        assert Money.from_usd("0.000975").micros == 975
        assert Money.from_usd("12.42").micros == 12_420_000
        assert Money.from_usd("9.7941").micros == 9_794_100

    def test_from_usd_rejects_sub_micro_and_garbage(self):
        with pytest.raises(ValueError):
            Money.from_usd("0.0000001")
        with pytest.raises(ValueError):
            Money.from_usd("not money")

    @pytest.mark.parametrize("amount", ["inf", "-Infinity", "nan", "sNaN", "1e999999999"])
    def test_from_usd_rejects_amounts_that_are_not_finite(self, amount):
        with pytest.raises(ValueError, match="is not finite"):
            Money.from_usd(amount)

    def test_arithmetic_and_ordering(self):
        a, b = Money(1_500_000), Money(250_000)
        assert a + b == Money(1_750_000)
        assert 3 * b == Money(750_000)
        assert b < a
        assert max(a, b) is a

    def test_int_only_multiplication(self):
        with pytest.raises(TypeError):
            Money(100) * 2.5

    @pytest.mark.parametrize("micros", [1.5, 2.0, True, False, "3", None, Decimal(3), Fraction(3)])
    def test_micros_must_be_an_int(self, micros):
        # a float once passed until str() failed on it, and True printed $0.00
        with pytest.raises(ValueError, match=re.escape(f"not {micros!r}")):
            Money(micros)

    @pytest.mark.parametrize("factor", [0.5, Decimal("0.5"), "1/2", None])
    def test_scale_takes_only_an_exact_rational(self, factor):
        # a float factor once rounded through float arithmetic without a word
        with pytest.raises(TypeError, match="int or Fraction"):
            Money(1_234_567).scale(factor)
        assert Money(1_234_567).scale(Fraction(1, 2)) == Money(620_000)
        assert Money(1_234_567).scale(2) == Money(2_470_000)

    def test_rendering(self):
        assert str(Money(0)) == "$0.00"
        assert str(Money(35_375_000)) == "$35.38"  # half a cent rounds up
        assert str(Money(12_420_000)) == "$12.42"
        assert str(Money(-1_025_000)) == "-$1.03"  # ties round away from zero

    def test_cents_half_up_boundaries(self):
        assert Money(125_000).cents_half_up() == 13
        assert Money(124_999).cents_half_up() == 12
        assert Money(-125_000).cents_half_up() == -13

    def test_cents_match_decimal_half_up(self):
        # cross-check the rounding rule against decimal's on 500 seeded values
        import random

        rng = random.Random(99)
        for _ in range(500):
            micros = rng.randrange(-10**9, 10**9)
            want = int(
                (Decimal(micros) / 10_000).quantize(
                    Decimal("1"), rounding=decimal.ROUND_HALF_UP
                )
            )
            assert Money(micros).cents_half_up() == want

    def test_scale_cent_quantizes(self):
        got = Money.from_usd("9.7941").scale(Fraction(2338, 10))
        assert got == Money(2_289_860_000)
        assert got.micros % 10_000 == 0


class TestGateRate:
    def test_worked_example(self):
        cost = IONQ.job_cost(GateCensus(100, 50), 500, 8)
        assert cost.micros == 35_375_000
        assert str(cost) == "$35.38"

    def test_minimum_floor(self):
        assert IONQ.job_cost(GateCensus(1, 1), 1, 2) == Money.from_usd("12.42")
        assert IONQ.job_cost(GateCensus(1, 1), 1, 2, error_mitigated=True) == Money.from_usd(
            "97.50"
        )

    def test_mitigated_floor_only_when_raw_is_below(self):
        big = GateCensus(10_000, 10_000)
        raw = IONQ.job_cost(big, 500, 20)
        assert IONQ.job_cost(big, 500, 20, error_mitigated=True) == raw

    def test_monotone_in_counts_and_shots(self):
        base = IONQ.job_cost(GateCensus(300, 200), 400, 10)
        assert IONQ.job_cost(GateCensus(301, 200), 400, 10) >= base
        assert IONQ.job_cost(GateCensus(300, 201), 400, 10) >= base
        assert IONQ.job_cost(GateCensus(300, 200), 401, 10) >= base


class TestCredits:
    def test_worked_example_charge(self):
        credits = credit_charge(GateCensus(1738, 500), 500, width=10)
        assert credits == Fraction(2338, 10)

    def test_hardware_and_emulator_dollars(self):
        credits = Fraction(2338, 10)
        assert str(HQC_HW.usd_per_credit.scale(credits)) == "$2289.86"
        assert str(HQC_EMU.usd_per_credit.scale(credits)) == "$25.44"

    def test_job_cost_equals_charge_times_rate(self):
        counts = GateCensus(280, 40)
        got = HQC_HW.job_cost(counts, 125, width=8)
        assert got == HQC_HW.usd_per_credit.scale(credit_charge(counts, 125, 8))

    def test_affine_in_shots_and_gates(self):
        w = 6
        base = credit_charge(GateCensus(10, 10), 1000, w)
        double_shots = credit_charge(GateCensus(10, 10), 2000, w)
        assert double_shots - 5 == 2 * (base - 5)
        plus_gate = credit_charge(GateCensus(11, 10), 1000, w)
        assert plus_gate - base == Fraction(1000, 5000)


class TestPerShot:
    def test_table_of_500_shot_costs(self):
        assert str(ARIA.job_cost(ANY_CENSUS, 500, 8)) == "$15.30"
        assert str(FORTE.job_cost(ANY_CENSUS, 500, 8)) == "$40.30"
        assert str(GARNET.job_cost(ANY_CENSUS, 500, 8)) == "$1.03"  # 1.025 rounds up

    def test_task_fee_scales(self):
        assert 3 * GARNET.job_cost(ANY_CENSUS, 0, 8) == Money.from_usd("0.90")

    def test_result_is_cent_quantized(self):
        assert GARNET.job_cost(ANY_CENSUS, 500, 8).micros % 10_000 == 0

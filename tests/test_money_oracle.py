"""Differential oracle for exact money rounding.

``oracle_cents_half_up`` is how ``Money`` rounded before it rounded in
integers: divide a ``Fraction`` of micro-USD by the micros in a cent, add or
subtract one half and floor.  ``Money.cents_half_up``, ``Money.scale``,
``str(Money)`` and every billing model's ``job_cost`` must give what the
``Fraction`` path gives, for negative amounts and large denominators too.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qbench.circuit import GateCensus
from qbench.costing import CreditBilling, GateRateBilling, Money, PerShotBilling

MICROS_PER_CENT = 10_000


def oracle_cents_half_up(micros: Fraction) -> int:
    cents = micros / MICROS_PER_CENT
    if cents >= 0:
        return math.floor(cents + Fraction(1, 2))
    return -math.floor(-cents + Fraction(1, 2))


def oracle_str(money: Money) -> str:
    cents = oracle_cents_half_up(Fraction(money.micros))
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return f"{sign}${cents // 100}.{cents % 100:02d}"


def oracle_scale(money: Money, factor: Fraction) -> Money:
    return Money(oracle_cents_half_up(Fraction(money.micros) * factor) * MICROS_PER_CENT)


def oracle_job_cost(model, census: GateCensus, shots: int, width: int, mitigated: bool) -> Money:
    if isinstance(model, GateRateBilling):
        raw = shots * (census.n_1q * model.usd_1q.micros + census.n_2q * model.usd_2q.micros)
        floor = model.minimum_mitigated if mitigated else model.minimum
        return max(Money(raw), floor)
    if isinstance(model, CreditBilling):
        credits = 5 + Fraction(shots * (census.n_1q + census.n_2q + 5 * width), 5000)
        return oracle_scale(model.usd_per_credit, credits)
    raw = Fraction(model.per_task.micros + shots * model.per_shot.micros)
    return Money(oracle_cents_half_up(raw) * MICROS_PER_CENT)


# amounts cluster around half-cent ties, where half-up rounding decides
near_ties = st.builds(
    lambda cents, off: cents * MICROS_PER_CENT + MICROS_PER_CENT // 2 + off,
    st.integers(-(10**12), 10**12),
    st.integers(-2, 2),
)
micros = st.integers(-(10**18), 10**18) | near_ties | st.integers(-20_000, 20_000)
money = st.builds(Money, micros)
factors = st.builds(
    Fraction,
    st.integers(-(10**20), 10**20),
    st.integers(1, 10**6) | st.integers(1, 10**30),
) | st.integers(-(10**9), 10**9)


@settings(max_examples=500, deadline=None)
@given(micros)
def test_cents_half_up_and_str_match_the_fraction_rounding(m):
    assert Money(m).cents_half_up() == oracle_cents_half_up(Fraction(m))
    assert str(Money(m)) == oracle_str(Money(m))


@settings(max_examples=500, deadline=None)
@given(money, factors)
def test_scale_matches_the_fraction_rounding(amount, factor):
    got = amount.scale(factor)
    assert got == oracle_scale(amount, Fraction(factor))
    assert type(got.micros) is int


def test_scale_ties_round_away_from_zero():
    # 1 micro-USD times 5000 / 1 is half a cent exactly
    assert Money(1).scale(5_000) == Money(10_000)
    assert Money(-1).scale(5_000) == Money(-10_000)
    assert Money(1).scale(Fraction(4_999_999, 1_000)) == Money(0)
    assert Money(-1).scale(Fraction(-5_000_000, 1_000)) == Money(10_000)


census = st.builds(GateCensus, st.integers(0, 10**6), st.integers(0, 10**6))
prices = st.builds(Money, st.integers(-(10**9), 10**9))
models = (
    st.builds(GateRateBilling, prices, prices, prices, prices)
    | st.builds(CreditBilling, prices)
    | st.builds(PerShotBilling, prices, prices)
)


@settings(max_examples=500, deadline=None)
@given(models, census, st.integers(0, 10**6), st.integers(1, 64), st.booleans())
def test_every_billing_model_matches_the_fraction_rounding(model, counts, shots, width, mitigated):
    got = model.job_cost(counts, shots, width, error_mitigated=mitigated)
    assert got == oracle_job_cost(model, counts, shots, width, mitigated)

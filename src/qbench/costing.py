"""Billing models for the simulated targets.

Money is an integer count of micro-USD so every price in the shipped table
(including $0.00022 per gate-shot and $0.00145 per shot) is representable
exactly and all arithmetic stays exact across campaign-sized aggregations.
Cents only appear at rounding points: rendering, and the two models whose
published bills are cent-quantized (credit-based and per-shot billing).
Half-up rounding (away from zero) is used throughout.

Three models, all billed through one call,
``job_cost(census, shots, width, *, error_mitigated=False)``; each reads
only the inputs its formula names:

* gate-rate billing: shots * (n_1q * rate_1q + n_2q * rate_2q), floored by a
  per-job minimum (a higher minimum applies when error mitigation is on);
* credit billing: credits = 5 + shots * (n_1q + n_2q + 5 * width) / 5000 as
  an exact rational, then credits * usd_per_credit, cent-rounded.  The
  5 * width term charges state preparation and measurement per qubit;
* per-shot billing: per_task + shots * per_shot, cent-rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Union

from .circuit import GateCensus

_MICROS_PER_USD = 1_000_000
_MICROS_PER_CENT = 10_000


@dataclass(frozen=True, order=True)
class Money:
    """Exact amount in micro-USD."""

    micros: int

    @classmethod
    def from_usd(cls, amount: str | int | float | Decimal) -> "Money":
        """Parse a USD amount; rejects anything not finite or finer than a micro-dollar."""
        try:
            dec = Decimal(str(amount))
        except InvalidOperation as exc:
            raise ValueError(f"unparseable amount {amount!r}") from exc
        try:  # an sNaN, or an exponent past the decimal context, traps here
            micros = dec * _MICROS_PER_USD
        except ArithmeticError:
            micros = Decimal("NaN")
        if not micros.is_finite():
            raise ValueError(f"{amount!r} is not finite")
        if micros != micros.to_integral_value():
            raise ValueError(f"{amount!r} is finer than micro-USD resolution")
        return cls(int(micros))

    def __add__(self, other: "Money") -> "Money":
        return Money(self.micros + other.micros)

    def __mul__(self, count: int) -> "Money":
        if not isinstance(count, int):
            raise TypeError("Money multiplies by int only; use scale() for rationals")
        return Money(self.micros * count)

    __rmul__ = __mul__

    def scale(self, factor: int | Fraction) -> "Money":
        """Multiply by an exact rational (an int or a Fraction) and cent-round the result."""
        if not isinstance(factor, (int, Fraction)):
            raise TypeError("Money scales by int or Fraction only, so rounding stays exact")
        num, den = self.micros * factor.numerator, factor.denominator
        return Money(_cents_half_up(num, den) * _MICROS_PER_CENT)

    def cents_half_up(self) -> int:
        return _cents_half_up(self.micros, 1)

    def __str__(self) -> str:
        cents = self.cents_half_up()
        sign = "-" if cents < 0 else ""
        cents = abs(cents)
        return f"{sign}${cents // 100}.{cents % 100:02d}"


def _cents_half_up(num: int, den: int) -> int:
    """``num / den`` micro-USD in cents, rounded half away from zero; ``den`` > 0.

    floor(x + 1/2) with x = num / d is (2 * num + d) // (2 * d) in integers.
    """
    d = den * _MICROS_PER_CENT
    if num >= 0:
        return (2 * num + d) // (2 * d)
    return -((d - 2 * num) // (2 * d))


@dataclass(frozen=True)
class GateRateBilling:
    """Per-gate-shot pricing with a per-job minimum."""

    usd_1q: Money
    usd_2q: Money
    minimum: Money
    minimum_mitigated: Money

    def job_cost(
        self, counts: GateCensus, shots: int, width: int, *, error_mitigated: bool = False
    ) -> Money:
        raw = (counts.n_1q * self.usd_1q + counts.n_2q * self.usd_2q) * shots
        floor = self.minimum_mitigated if error_mitigated else self.minimum
        return max(raw, floor)


def credit_charge(counts: GateCensus, shots: int, width: int) -> Fraction:
    """Exact credits for one job: 5 + shots * (gates + 5 * width) / 5000."""
    return 5 + Fraction(shots * (counts.n_1q + counts.n_2q + 5 * width), 5000)


@dataclass(frozen=True)
class CreditBilling:
    """Credit-metered pricing (hardware and emulator tiers use different rates)."""

    usd_per_credit: Money

    def job_cost(
        self, counts: GateCensus, shots: int, width: int, *, error_mitigated: bool = False
    ) -> Money:
        return self.usd_per_credit.scale(credit_charge(counts, shots, width))


@dataclass(frozen=True)
class PerShotBilling:
    """Flat task fee plus a per-shot rate; gate counts do not matter."""

    per_task: Money
    per_shot: Money

    def job_cost(
        self, counts: GateCensus, shots: int, width: int, *, error_mitigated: bool = False
    ) -> Money:
        return (self.per_task + shots * self.per_shot).scale(1)


CostModel = Union[GateRateBilling, CreditBilling, PerShotBilling]

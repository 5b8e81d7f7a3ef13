"""``CampaignConfig`` checks its own values, so one built or ``dataclasses.replace``d in
Python is refused as ``load_config`` refuses the INI line that gives the same value,
with the same message, and ``run_campaign`` never receives it."""

import dataclasses

import pytest

from qbench.cli import MAX_SHOTS, CampaignConfig, ConfigError, load_config
from qbench.costing import Money
from test_cli import run_cli, write_config

# two targets and two sizes: four slots a sweep
CONFIG = "[campaign]\nqubits = 8,10\n{line}\n[targets]\nuse = garnet-aws, h2-azure\n"

# an INI line each rule refuses, and the field and value that line would give
REFUSED = {
    "zero-shots": ("shots = 0", "shots", 0),
    "negative-shots": ("shots = -5", "shots", -5),
    "shots-past-the-bound": ("shots = 1000001", "shots", MAX_SHOTS + 1),
    "absurd-shots": ("shots = 1000000000000", "shots", 10**12),
    "zero-days": ("days = 0", "days", 0),
    "zero-sweeps": ("sweeps_per_day = 0", "sweeps_per_day", 0),
    "sweeps-not-dividing-a-day": ("sweeps_per_day = 7", "sweeps_per_day", 7),
    "sweeps-too-short-for-the-slots": ("sweeps_per_day = 288", "sweeps_per_day", 288),
    "negative-seed": ("seed = -1", "seed", -1),
    "seed-past-64-bits": ("seed = 18446744073709551616", "seed", 2**64),
    "negative-budget-cap": ("budget_cap = -5", "budget_cap", Money.from_usd("-5")),
}


@pytest.fixture
def cfg(tmp_path):
    return load_config(write_config(tmp_path / "good.ini", CONFIG.format(line="")))


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_a_replaced_value_is_refused_in_the_words_of_the_ini_path(tmp_path, cfg, case):
    line, field, value = REFUSED[case]
    with pytest.raises(ConfigError) as from_ini:
        load_config(write_config(tmp_path / "bad.ini", CONFIG.format(line=line)))
    with pytest.raises(ConfigError) as replaced:
        dataclasses.replace(cfg, **{field: value})
    assert str(replaced.value) == str(from_ini.value)
    with pytest.raises(ConfigError) as built:
        fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
        CampaignConfig(**{**fields, field: value})
    assert str(built.value) == str(from_ini.value)


@pytest.mark.parametrize(
    "field, value",
    [("shots", "500"), ("shots", True), ("shots", 500.0), ("days", None), ("seed", 1.5)],
)
def test_a_count_or_seed_that_is_no_int_is_refused(cfg, field, value):
    with pytest.raises(ConfigError, match="^shots, days, sweeps_per_day and seed must be ints$"):
        dataclasses.replace(cfg, **{field: value})


def test_the_largest_shot_count_loads(tmp_path, cfg):
    path = write_config(tmp_path / "c.ini", CONFIG.format(line=f"shots = {MAX_SHOTS}"))
    assert load_config(path).shots == MAX_SHOTS == 1_000_000
    assert dataclasses.replace(cfg, shots=MAX_SHOTS).shots == MAX_SHOTS


def test_an_absurd_shot_count_is_exit_2_and_writes_nothing(tmp_path):
    """A trillion shots once reached the sampler and died there, out of memory, after
    the store file was made."""
    cfg = write_config(tmp_path / "c.ini", CONFIG.format(line="shots = 1000000000000"))
    store_path = tmp_path / "run.jsonl"
    code, out, err = run_cli("--store", str(store_path), "campaign", "run", "--config", cfg)
    message = "shots = 1000000000000 is more than MAX_SHOTS = 1000000"
    assert (code, out, err) == (2, "", f"config error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini"]

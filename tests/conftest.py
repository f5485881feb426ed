"""Shared fixtures: tiny deterministic model objects for fast tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import (
    BatteryConfig,
    CommunityConfig,
    DetectionConfig,
    GameConfig,
    PricingConfig,
    SolarConfig,
    TimeGrid,
)
from repro.netmetering.cost import NetMeteringCostModel, marginal_tables
from repro.scheduling.appliance import ApplianceTask
from repro.scheduling.customer import Customer
from repro.scheduling.game import Community

HORIZON = 24


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def time_grid() -> TimeGrid:
    return TimeGrid(slots_per_day=HORIZON, n_days=1)


@pytest.fixture
def simple_task() -> ApplianceTask:
    """2 kWh over an 18:00-23:00 window at 0/0.5/1 kW."""
    return ApplianceTask(
        name="dishwasher",
        power_levels=(0.0, 0.5, 1.0),
        energy_kwh=2.0,
        earliest_start=18,
        deadline=23,
    )


@pytest.fixture
def tight_task() -> ApplianceTask:
    """A task whose window exactly fits its energy (forced schedule)."""
    return ApplianceTask(
        name="forced",
        power_levels=(0.0, 1.0),
        energy_kwh=3.0,
        earliest_start=5,
        deadline=7,
    )


@pytest.fixture
def battery_spec() -> BatteryConfig:
    return BatteryConfig(
        capacity_kwh=2.0, initial_kwh=0.5, max_charge_kw=1.0, max_discharge_kw=1.0
    )


@pytest.fixture
def flat_cost_model() -> NetMeteringCostModel:
    return NetMeteringCostModel.flat([0.03] * HORIZON, 2.0)


def marginal_table(
    model: NetMeteringCostModel,
    base_trading,
    others_trading,
    levels,
    *,
    multiplicity: int = 1,
    slot_hours: float = 1.0,
) -> np.ndarray:
    """:func:`marginal_tables` for one customer: one row, ``(H, L)``."""
    return marginal_tables(
        np.asarray(base_trading, dtype=float)[None],
        np.asarray(others_trading, dtype=float)[None],
        levels,
        buy_rates=model.buy_array[None],
        sell_rates=model.sell_array[None],
        export_cap_kwh=model.export_cap_kwh,
        paper_literal=model.paper_literal,
        multiplicity=multiplicity,
        slot_hours=slot_hours,
    )[0]


def make_customer(
    customer_id: int = 0,
    *,
    tasks: tuple[ApplianceTask, ...] | None = None,
    battery: BatteryConfig | None = None,
    pv_peak: float = 0.0,
    base: float = 0.5,
) -> Customer:
    """A hand-built customer with optional PV bell and battery."""
    if tasks is None:
        tasks = (
            ApplianceTask(
                name="washer",
                power_levels=(0.0, 0.5, 1.0),
                energy_kwh=1.5,
                earliest_start=8,
                deadline=15,
            ),
            ApplianceTask(
                name="ev",
                power_levels=(0.0, 1.0),
                energy_kwh=3.0,
                earliest_start=18,
                deadline=23,
            ),
        )
    if battery is None:
        battery = BatteryConfig(capacity_kwh=0.0, initial_kwh=0.0)
    hours = np.arange(HORIZON) + 0.5
    pv = pv_peak * np.clip(np.sin(np.pi * (hours - 6.0) / 13.0), 0.0, None)
    pv[hours < 6.0] = 0.0
    pv[hours > 19.0] = 0.0
    return Customer(
        customer_id=customer_id,
        tasks=tasks,
        battery=battery,
        pv=tuple(pv),
        base_load=tuple(np.full(HORIZON, base)),
    )


@pytest.fixture
def small_customer() -> Customer:
    return make_customer()


@pytest.fixture
def nm_customer(battery_spec: BatteryConfig) -> Customer:
    return make_customer(1, battery=battery_spec, pv_peak=0.8)


@pytest.fixture
def small_community(small_customer: Customer, nm_customer: Customer) -> Community:
    return Community(customers=(small_customer, nm_customer), counts=(3, 2))


@pytest.fixture
def tiny_config() -> CommunityConfig:
    """Minimal community config for integration tests."""
    return CommunityConfig(
        n_customers=8,
        appliances_per_customer=(2, 3),
        pv_adoption=0.5,
        time=TimeGrid(slots_per_day=24, n_days=1),
        battery=BatteryConfig(
            capacity_kwh=1.0, initial_kwh=0.0, max_charge_kw=0.5, max_discharge_kw=0.5
        ),
        solar=SolarConfig(peak_kw=0.7),
        pricing=PricingConfig(),
        game=GameConfig(
            max_rounds=3,
            inner_iterations=1,
            ce_samples=12,
            ce_elites=3,
            ce_iterations=3,
        ),
        detection=DetectionConfig(n_monitored_meters=4),
        seed=99,
    )


@pytest.fixture(scope="session")
def fleet_config() -> CommunityConfig:
    """Tiny per-community config shared by the fleet test modules.

    Session-scoped (frozen dataclass) so every fleet test builds
    communities from the same world and the session-wide game-solution
    cache keeps solves shared across modules.
    """
    return CommunityConfig(
        n_customers=8,
        appliances_per_customer=(2, 3),
        pv_adoption=0.5,
        time=TimeGrid(slots_per_day=24, n_days=1),
        battery=BatteryConfig(
            capacity_kwh=1.0, initial_kwh=0.0, max_charge_kw=0.5, max_discharge_kw=0.5
        ),
        solar=SolarConfig(peak_kw=0.7),
        game=GameConfig(
            max_rounds=2,
            inner_iterations=1,
            ce_samples=8,
            ce_elites=2,
            ce_iterations=2,
            convergence_tol=0.1,
        ),
        detection=DetectionConfig(n_monitored_meters=4, hack_probability=0.15),
        seed=11,
    )

"""Multi-day monitored-community scenario (Figure 6 and Table 1).

One scenario run couples every subsystem:

1. a guideline-price **history** is generated and the chosen price
   predictor (net-metering aware or unaware) is trained on it;
2. a **community** is built; the monitored smart meters stand for equal
   shares of it;
3. the single-event detector is **calibrated** (Monte-Carlo TP/FP rates)
   and the **POMDP** observation model built from the measured rates;
4. the monitoring loop runs the ground-truth **hacking process**, collects
   single-event flags, feeds the flag count to the **long-term detector**
   and applies its repair decisions;
5. the realized **grid demand** mixes the benign community response with
   the hacked shares' manipulated responses (all cached game solutions),
   giving the PAR column of Table 1.

Steps 1-3 are :func:`build_replay_world`, the one construction of the
scenario world.  Steps 4-5 are the streaming pipeline
(:mod:`repro.stream`): :func:`run_long_term_scenario` drains the world's
replay event stream to exhaustion, and
:func:`repro.stream.pipeline.build_replay_engine` wraps the same world
in a resumable engine for the ``stream`` command and checkpoints.

The ``detector="none"`` variant skips the policy (attacks are never
repaired), reproducing Table 1's "No Detection" column.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np
from numpy.typing import NDArray

from repro.attacks.hacking import MeterHackingProcess
from repro.core.config import CommunityConfig
from repro.data.community import build_community
from repro.data.weather import DEFAULT_WEATHER
from repro.data.pricing import (
    GuidelinePriceModel,
    PriceHistory,
    baseline_demand_profile,
    generate_history,
)
from repro.detection.long_term import LongTermDetector
from repro.detection.pomdp import build_detection_pomdp
from repro.detection.single_event import (
    CommunityResponseSimulator,
    SingleEventDetector,
)
from repro.detection.solvers import PbviPolicy, QmdpPolicy
from repro.metrics.accuracy import confusion_counts, per_meter_accuracy
from repro.metrics.cost import LaborCostModel
from repro.metrics.par import par
from repro.obs.trace import TRACER
from repro.prediction.price import AwarePricePredictor, UnawarePricePredictor
from repro.simulation.cache import GameSolutionCache, global_game_cache
from repro.simulation.calibration import measure_single_event_rates

DetectorKind = Literal["aware", "unaware", "none"]


@dataclass(frozen=True)
class ScenarioResult:
    """Everything the Figure 6 / Table 1 analyses need from one run."""

    detector: DetectorKind
    truth: NDArray[np.bool_]
    flags: NDArray[np.bool_]
    observations: NDArray[np.int_]
    repairs: NDArray[np.bool_]
    repaired_counts: NDArray[np.int_]
    realized_grid: NDArray[np.float64]
    slots_per_day: int
    tp_rate: float
    fp_rate: float

    @property
    def n_slots(self) -> int:
        return self.truth.shape[0]

    @property
    def observation_accuracy(self) -> float:
        """Per-meter classification accuracy (the Figure 6 metric)."""
        return per_meter_accuracy(self.truth, self.flags)

    @property
    def accuracy_per_slot(self) -> NDArray[np.float64]:
        """Per-slot fraction of correctly classified meters (Fig. 6 series)."""
        correct = self.truth == self.flags
        return correct.mean(axis=1)

    @property
    def mean_par(self) -> float:
        """Mean daily PAR of the realized grid demand (Table 1)."""
        days = self.realized_grid.reshape(-1, self.slots_per_day)
        return float(np.mean([par(day) for day in days]))

    @property
    def n_repairs(self) -> int:
        return int(self.repairs.sum())

    @property
    def mean_hacked(self) -> float:
        """Average number of simultaneously hacked meters."""
        return float(self.truth.sum(axis=1).mean())

    def labor_cost(self, model: LaborCostModel) -> float:
        """Total labor cost of the run's repair dispatches."""
        counts = self.repaired_counts[self.repairs]
        return model.total_cost(counts)

    def rates_summary(self) -> tuple[float, float]:
        """Realized (TP, FP) rates over the run (not the calibration)."""
        counts = confusion_counts(self.truth, self.flags)
        has_pos = counts.true_positives + counts.false_negatives > 0
        has_neg = counts.false_positives + counts.true_negatives > 0
        tp = counts.true_positive_rate if has_pos else 0.0
        fp = counts.false_positive_rate if has_neg else 0.0
        return tp, fp


@dataclass
class ReplayWorld:
    """Everything one monitored scenario needs, built before its first slot.

    The ``rng`` is the *shared* generator: the replay source draws
    compromise dynamics from it and the pipeline draws measurement noise
    from it, interleaved slot by slot in stream order.
    """

    config: CommunityConfig
    detector: DetectorKind
    n_slots: int
    day_clean_prices: list[NDArray[np.float64]]
    day_predicted: list[NDArray[np.float64]]
    day_detectors: list[SingleEventDetector]
    truth_simulator: CommunityResponseSimulator
    predicted_simulator: CommunityResponseSimulator
    hacking: MeterHackingProcess
    long_term: LongTermDetector | None
    tp_rate: float
    fp_rate: float
    rng: np.random.Generator

    @property
    def slots_per_day(self) -> int:
        return self.config.time.slots_per_day

    @property
    def n_days(self) -> int:
        return self.n_slots // self.slots_per_day

    @property
    def n_meters(self) -> int:
        return self.config.detection.n_monitored_meters


def build_replay_world(
    config: CommunityConfig,
    *,
    detector: DetectorKind,
    n_slots: int = 48,
    history: PriceHistory | None = None,
    policy: str = "qmdp",
    calibration_trials: int = 30,
    seed: int | None = None,
    cache: GameSolutionCache | None = None,
    attack_family: str = "peak_increase",
) -> ReplayWorld:
    """Build the scenario world: every step up to the first monitored slot.

    The RNG draws happen in a fixed order — community build, history
    generation, per-day environment, detector calibration, policy
    seeding — and the generator is handed on in that state, so a world
    rebuilt from the same arguments (a checkpoint resume) continues the
    identical stream.  Parameters are those of
    :func:`run_long_term_scenario`.
    """
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")
    spd = config.time.slots_per_day
    if n_slots % spd != 0:
        raise ValueError(f"n_slots {n_slots} must be a multiple of {spd}")
    n_days = n_slots // spd
    rng = np.random.default_rng(config.seed if seed is None else seed)
    cache = cache if cache is not None else global_game_cache()
    setup_span = TRACER.begin("scenario.setup", parent_id=TRACER.current_span_id)

    day_config = config.with_updates(time=replace(config.time, n_days=1))
    community = build_community(day_config, rng=rng)
    price_model = GuidelinePriceModel(
        config=config.pricing, n_customers=config.n_customers
    )
    if history is None:
        history = generate_history(
            rng,
            n_customers=config.n_customers,
            pricing=config.pricing,
            solar=config.solar,
            slots_per_day=spd,
            mean_pv_per_customer_kw=config.solar.peak_kw * config.pv_adoption,
        )

    aware = detector != "unaware"
    if aware:
        predictor: AwarePricePredictor | UnawarePricePredictor = AwarePricePredictor()
    else:
        predictor = UnawarePricePredictor()
    predictor.fit(history)

    # --- day-level environment -------------------------------------------
    base_demand = baseline_demand_profile(day_config.time) * config.n_customers
    day_clean_prices: list[NDArray[np.float64]] = []
    day_predicted: list[NDArray[np.float64]] = []
    for _ in range(n_days):
        weather = DEFAULT_WEATHER.daily_factor(rng)
        pv = community.total_pv * weather
        demand = base_demand * float(np.clip(rng.normal(1.0, 0.03), 0.8, 1.2))
        clean = price_model.price(demand, pv, rng=rng)
        day_clean_prices.append(clean)
        if aware:
            predicted = predictor.predict_day(
                demand_forecast=demand, renewable_forecast=pv
            )
        else:
            predicted = predictor.predict_day()
        day_predicted.append(predicted)
        # Roll the history forward so the next day's lags see this day.
        history = PriceHistory(
            prices=np.concatenate([history.prices, clean]),
            demand=np.concatenate([history.demand, demand]),
            renewable=np.concatenate([history.renewable, pv]),
            nm_active=np.concatenate([history.nm_active, np.ones(spd, dtype=bool)]),
            slots_per_day=spd,
        )

    # --- detection stack ---------------------------------------------------
    # Ground truth responses always include net metering; the received
    # price is simulated on this model for both detectors.
    truth_simulator = CommunityResponseSimulator(
        community,
        config=config.game,
        sellback_divisor=config.pricing.sellback_divisor,
        seed=3,
        cache=cache,
        solver=config.solver,
        tariff=config.tariff,
    )
    # The detector's own expectation model: the unaware detector does not
    # model net metering at all (ref. [8]), so its predicted PAR carries a
    # systematic offset — the compromise the paper analyzes.
    if aware:
        predicted_simulator = truth_simulator
    else:
        # The unaware detector's model predates tariffs entirely: it
        # keeps the paper's flat pricing regardless of ``config.tariff``.
        predicted_simulator = CommunityResponseSimulator(
            community.without_net_metering(),
            config=config.game,
            sellback_divisor=config.pricing.sellback_divisor,
            seed=3,
            cache=cache,
            solver=config.solver,
        )
    # Batch-solve the day-level games up front: every detector
    # construction below (predicted PAR) and every slot's clean response
    # then hits the cache.  Prefetching consumes nothing from the
    # scenario rng and is bitwise-identical to solving lazily.
    if predicted_simulator is truth_simulator:
        truth_simulator.prefetch(day_predicted + day_clean_prices)
    else:
        predicted_simulator.prefetch(day_predicted)
        truth_simulator.prefetch(day_clean_prices)
    n_meters = config.detection.n_monitored_meters
    hacking = MeterHackingProcess(
        n_meters,
        config.detection.hack_probability,
        slots_per_day=spd,
        attack_family=attack_family,
        rng=rng,
    )
    day_detectors = [
        SingleEventDetector(
            truth_simulator,
            day_predicted[d],
            predicted_simulator=predicted_simulator,
            threshold=config.detection.par_threshold,
            margin_noise_std=config.detection.margin_noise_std,
        )
        for d in range(n_days)
    ]

    long_term: LongTermDetector | None = None
    tp_rate = fp_rate = 0.0
    if detector != "none":
        rates = measure_single_event_rates(
            day_detectors[0],
            day_clean_prices[0],
            hacking,
            n_trials=calibration_trials,
            rng=rng,
        ).clipped()
        tp_rate, fp_rate = rates.tp_rate, rates.fp_rate
        model = build_detection_pomdp(
            n_meters,
            hack_probability=config.detection.hack_probability,
            tp_rate=tp_rate,
            fp_rate=fp_rate,
            damage_per_meter=config.detection.damage_per_meter,
            repair_fixed_cost=config.detection.repair_fixed_cost,
            repair_cost_per_meter=config.detection.repair_cost_per_meter,
            discount=config.detection.discount,
        )
        chosen_policy = (
            PbviPolicy(model, rng=np.random.default_rng(int(rng.integers(2**31 - 1))))
            if policy == "pbvi"
            else QmdpPolicy(model)
        )
        long_term = LongTermDetector(model, policy=chosen_policy)

    TRACER.end(setup_span)
    return ReplayWorld(
        config=config,
        detector=detector,
        n_slots=n_slots,
        day_clean_prices=day_clean_prices,
        day_predicted=day_predicted,
        day_detectors=day_detectors,
        truth_simulator=truth_simulator,
        predicted_simulator=predicted_simulator,
        hacking=hacking,
        long_term=long_term,
        tp_rate=tp_rate,
        fp_rate=fp_rate,
        rng=rng,
    )


def run_long_term_scenario(
    config: CommunityConfig,
    *,
    detector: DetectorKind,
    n_slots: int = 48,
    history: PriceHistory | None = None,
    policy: Literal["qmdp", "pbvi"] = "qmdp",
    calibration_trials: int = 30,
    seed: int | None = None,
    cache: GameSolutionCache | None = None,
    attack_family: str = "peak_increase",
) -> ScenarioResult:
    """Run the 48-hour monitored scenario of Section 5.

    The world from :func:`build_replay_world` is drained as a replay
    event stream through the online pipeline
    (:func:`repro.stream.pipeline.build_replay_engine` builds the same
    engine for resumable runs).

    Parameters
    ----------
    config:
        Community and detection parameters.  ``config.time`` must be a
        one-day grid; the scenario spans ``n_slots`` slots across
        consecutive days.
    detector:
        ``"aware"``, ``"unaware"`` or ``"none"`` (Table 1's three columns;
        the "none" column keeps monitoring but never repairs).
    n_slots:
        Length of the monitoring horizon (48 in the paper's Fig. 6).
    history:
        Price history for predictor training; generated when omitted.
    policy:
        POMDP policy for the long-term layer.
    calibration_trials:
        Monte-Carlo trials per class when measuring the single-event
        TP/FP rates.
    seed:
        Overrides ``config.seed``.
    cache:
        Game-solution cache shared by the run's simulators; defaults to
        the process-global cache, so repeated runs (aggregation seeds,
        detector variants over the same community, benchmark sessions)
        solve each distinct game exactly once.  Solutions are
        content-addressed over the full solve input, so cached runs are
        numerically identical to cold ones.
    attack_family:
        What each compromise campaign installs (see
        :data:`repro.attacks.hacking.ATTACK_FAMILIES`).  The default is
        the paper's cheap-window attack through the historical code
        path; the telemetry families additionally decouple the reading
        the detector sees from the price the home responded to.
    """
    # Imported here: the pipeline module imports ScenarioResult.
    from repro.stream.pipeline import _replay_engine

    with TRACER.span("scenario.run", detector=str(detector), n_slots=n_slots):
        world = build_replay_world(
            config,
            detector=detector,
            n_slots=n_slots,
            history=history,
            policy=policy,
            calibration_trials=calibration_trials,
            seed=seed,
            cache=cache,
            attack_family=attack_family,
        )
        engine = _replay_engine(world, build_spec={"detector": detector})
        engine.run()
        return engine.result()

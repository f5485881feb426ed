"""The net-metering-aware energy consumption scheduling game (Section 3.1).

Every customer minimizes their own monetary cost (Problem **P1**) given
everyone else's trading totals; the solution concept is the iterative
best-response loop of Algorithm 1:

- outer loop: cycle over customers until the community trading vector
  stops changing;
- per customer, inner loop: alternate the dynamic-programming appliance
  scheduler (power levels ``x_m^h`` with the battery fixed) and the
  cross-entropy battery optimizer (trajectory ``b_n^h`` with appliances
  fixed).

Communities are described as weighted *archetypes*: ``counts[a]`` identical
instances share the strategy of ``customers[a]``.  Instances of the same
archetype best-respond against the whole community minus one instance,
exactly as independent players would, but the fixed point is computed once
per archetype — this is what makes the paper's 500-customer community
tractable in pure Python.

Algorithm 1 has one implementation, :class:`LockstepGameSolver`, which
advances ``G`` independent games over one community in lockstep.  The
detection pipeline repeatedly solves the *same community* under
*different guideline-price vectors* with the *same solver seed*: the
calibration Monte-Carlo checks ~30 attacked prices against one day, the
scenario loop simulates every meter's received price, and sweeps scan
whole price grids.  Algorithm 1 is Gauss-Seidel within one game — each
customer best-responds against totals already updated this round — so
customers cannot be batched inside a round.  Independent *games*,
however, march through identical control flow: per-customer CE seeds are
fixed functions of customer identity, and one shared round-order
generator serves every game.  The solver therefore fuses every array
operation across a leading game axis while keeping all accept/reject
decisions per game.  :class:`SchedulingGame` is the one-game case
(``G = 1``).

Batch invariance: ``solve_games(community, [p1, ..., pG], ...)[g]`` is
identical — every schedule, battery trajectory, round count and residual
— to ``SchedulingGame(community, pg, ...).solve(rng=default_rng(seed))``.
The batched reductions used (row-wise ``sum``/``mean``/``std``/
``argsort``/``cumsum`` and elementwise broadcasting) are exact per-row
matches of their one-row counterparts; ``tests/test_batched_game.py``
enforces the contract end to end.

Population layout: CE populations are ``(games, K, H)``; DP tables are
``(games, H, levels)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.core.config import GameConfig
from repro.kernels import get_backend
from repro.netmetering.cost import (
    NetMeteringCostModel,
    customer_cost_terms,
    marginal_tables,
)
from repro.obs.trace import TRACER
from repro.perf.counters import PERF
from repro.scheduling.appliance import ApplianceSchedule
from repro.scheduling.customer import Customer, CustomerState
from repro.scheduling.dp import schedule_appliance_tables

if TYPE_CHECKING:
    from repro.tariffs.base import Tariff

FloatArray = NDArray[np.float64]

_CE_STD_FLOOR = 1e-3
"""Must match :class:`repro.optimization.cross_entropy.CrossEntropyOptimizer`."""


@dataclass(frozen=True)
class Community:
    """A weighted collection of customer archetypes."""

    customers: tuple[Customer, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "customers", tuple(self.customers))
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if not self.customers:
            raise ValueError("community must have at least one customer archetype")
        if len(self.counts) != len(self.customers):
            raise ValueError(
                f"{len(self.counts)} counts for {len(self.customers)} archetypes"
            )
        if any(c < 1 for c in self.counts):
            raise ValueError("archetype counts must be >= 1")
        horizons = {c.horizon for c in self.customers}
        if len(horizons) != 1:
            raise ValueError(f"customers disagree on horizon: {sorted(horizons)}")

    @property
    def horizon(self) -> int:
        return self.customers[0].horizon

    @property
    def n_customers(self) -> int:
        return sum(self.counts)

    @property
    def total_pv(self) -> NDArray[np.float64]:
        """Community renewable generation ``Theta_h`` per slot."""
        total = np.zeros(self.horizon)
        for customer, count in zip(self.customers, self.counts):
            total += count * customer.pv_array
        return total

    def without_net_metering(self) -> "Community":
        """The same community with PV and batteries stripped."""
        return Community(
            customers=tuple(c.without_net_metering() for c in self.customers),
            counts=self.counts,
        )


@dataclass(frozen=True)
class GameResult:
    """Converged (or truncated) outcome of the scheduling game."""

    states: tuple[CustomerState, ...]
    counts: tuple[int, ...]
    rounds: int
    converged: bool
    residuals: tuple[float, ...] = field(default=())

    @property
    def horizon(self) -> int:
        return self.states[0].customer.horizon

    @property
    def community_load(self) -> NDArray[np.float64]:
        """Total consumption ``L_h = sum_n l_n^h`` per slot."""
        total = np.zeros(self.horizon)
        for state, count in zip(self.states, self.counts):
            total += count * state.load
        return total

    @property
    def community_trading(self) -> NDArray[np.float64]:
        """Total grid trading ``Y_h = sum_n y_n^h`` per slot."""
        total = np.zeros(self.horizon)
        for state, count in zip(self.states, self.counts):
            total += count * state.trading
        return total

    @property
    def grid_demand(self) -> NDArray[np.float64]:
        """Energy purchased from the utility per slot (clamped at zero)."""
        return np.maximum(self.community_trading, 0.0)


class _LockstepState:
    """Strategy arrays for one archetype across all games in the batch.

    ``load`` and ``trading`` hold each game's household load and grid
    trading; :meth:`refresh` recomputes them for the games whose strategy
    changed, with the operation order of ``CustomerState.load`` and
    ``CustomerState.trading``.
    """

    def __init__(self, customer: Customer, n_games: int) -> None:
        self.customer = customer
        horizon = customer.horizon
        self.power = np.zeros((n_games, len(customer.tasks), horizon))
        self.battery = np.zeros((n_games, horizon))
        self.load = np.zeros((n_games, horizon))
        self.trading = np.zeros((n_games, horizon))
        self._base_load = customer.base_load_array
        self._pv = customer.pv_array

    def refresh(self, rows: NDArray[np.int_]) -> None:
        """Recompute ``load`` and ``trading`` of the games in ``rows``."""
        load = np.broadcast_to(
            self._base_load, (rows.size, self.customer.horizon)
        ).copy()
        for t in range(len(self.customer.tasks)):
            load += self.power[rows, t, :]
        b0 = np.full((rows.size, 1), self.customer.battery.initial_kwh)
        full = np.concatenate([b0, self.battery[rows]], axis=1)
        self.load[rows] = load
        self.trading[rows] = load + np.diff(full, axis=1) - self._pv

    def state_for(self, game: int) -> CustomerState:
        """Materialize one game's strategy as a ``CustomerState``."""
        schedules = tuple(
            ApplianceSchedule(task=task, power=tuple(self.power[game, t]))
            for t, task in enumerate(self.customer.tasks)
        )
        return CustomerState(
            customer=self.customer,
            schedules=schedules,
            battery_decision=tuple(self.battery[game]),
        )


class LockstepGameSolver:
    """Algorithm 1 for ``G`` independent games over one community.

    See the module docstring for the batching argument.
    """

    def __init__(
        self,
        community: Community,
        price_vectors: Sequence[ArrayLike],
        *,
        sellback_divisor: float = 2.0,
        config: GameConfig | None = None,
        tariff: "Tariff | None" = None,
    ) -> None:
        if not price_vectors:
            raise ValueError("need at least one price vector")
        self.community = community
        self.config = config if config is not None else GameConfig()
        # Hourly slots: a kW power level consumes that many kWh per slot,
        # which keeps appliance loads, PV and trading in the same unit.
        self.slot_hours = 1.0
        self.tariff = tariff
        horizon = community.horizon
        prices = np.stack(
            [np.asarray(p, dtype=float) for p in price_vectors]
        )
        if prices.shape != (len(price_vectors), horizon):
            raise ValueError(
                f"price vectors must each have shape ({horizon},), "
                f"got stacked shape {prices.shape}"
            )
        # One cost model per game: with no tariff, the paper's flat net
        # metering; a tariff supplies its own rates.  The models validate
        # the prices (finite, non-negative) and serve scalar costing to
        # callers.
        sellback_divisor = float(sellback_divisor)
        self.cost_models = [
            NetMeteringCostModel.flat(p, sellback_divisor)
            if tariff is None
            else tariff.cost_model(p, sellback_divisor=sellback_divisor)
            for p in prices
        ]
        # Per-game rate rows, stacked once; the export cap and the sign
        # reading belong to the tariff, so every game shares them.  The
        # buy rates also drive the greedy warm start.
        self.buy_rates = np.stack([m.buy_array for m in self.cost_models])
        self.sell_rates = np.stack([m.sell_array for m in self.cost_models])
        self.export_cap = self.cost_models[0].export_cap_kwh
        self.paper_literal = self.cost_models[0].paper_literal
        self.n_games = prices.shape[0]
        # Per-(customer, task) tables that are pure functions of static
        # identity: the DP tie-break jitter (a fresh seeded generator
        # reproduces the same table every call, so caching it is exact)
        # and the power-level array used for schedule costing.
        self._jitter_tables: dict[tuple[int, int], FloatArray] = {}
        self._level_arrays: dict[tuple[int, int], FloatArray] = {}
        self._slot_index = np.arange(horizon)

    def _task_tables(
        self, customer: Customer, index: int
    ) -> tuple[FloatArray, FloatArray]:
        """Cached (jitter table, power-level array) for one task."""
        key = (customer.customer_id, index)
        jitter = self._jitter_tables.get(key)
        if jitter is None:
            task = customer.tasks[index]
            levels = np.asarray(task.power_levels)
            jitter_rng = np.random.default_rng(
                (customer.customer_id * 1_000_003 + index) % (2**32)
            )
            jitter = jitter_rng.uniform(
                0.0, 1e-6, size=(self.community.horizon, levels.size)
            )
            self._jitter_tables[key] = jitter
            self._level_arrays[key] = levels
        return jitter, self._level_arrays[key]

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def _initial_state(
        self,
        customer: Customer,
        warm_states: Sequence[CustomerState | None],
    ) -> _LockstepState:
        """One archetype's starting strategy in every game.

        ``warm_states[g]`` seeds game ``g``; games without one get the
        greedy start: price-only appliance scheduling, idle battery.
        """
        state = _LockstepState(customer, self.n_games)
        cold = np.array(
            [g for g, warm in enumerate(warm_states) if warm is None], dtype=int
        )
        if cold.size:
            for t, task in enumerate(customer.tasks):
                levels = np.asarray(task.power_levels)
                tables = (
                    self.buy_rates[cold][:, :, None]
                    * levels[None, None, :]
                    * self.slot_hours
                )
                schedules, _ = schedule_appliance_tables(
                    task, tables, slot_hours=self.slot_hours
                )
                for i, g in enumerate(cold):
                    state.power[g, t, :] = schedules[i].load
            state.battery[cold] = customer.battery.initial_kwh
        for g, warm in enumerate(warm_states):
            if warm is None:
                continue
            for t, schedule in enumerate(warm.schedules):
                state.power[g, t, :] = schedule.load
            state.battery[g] = np.asarray(warm.battery_decision, dtype=float)
        state.refresh(np.arange(self.n_games))
        return state

    # ------------------------------------------------------------------
    # Batched CE battery step
    # ------------------------------------------------------------------
    def _ce_battery(
        self,
        customer: Customer,
        load: FloatArray,
        others: FloatArray,
        buy: FloatArray,
        sell: FloatArray,
        x0: FloatArray,
        multiplicity: int,
        std_scales: FloatArray,
    ) -> tuple[FloatArray, FloatArray]:
        """Batched CE over battery trajectories; one game per row.

        Mirrors :meth:`CrossEntropyOptimizer.minimize` exactly per row;
        each game draws from its own freshly seeded generator (the same
        per-customer deterministic seed for every game), so every game's
        draw stream is the one a solo solve would see.  Returns
        ``(best_x, best_f)``.
        """
        spec = customer.battery
        cfg = self.config
        n_games, horizon = x0.shape
        kernels = get_backend()
        lower = np.zeros(horizon)
        upper = np.full(horizon, spec.capacity_kwh)
        span = upper - lower
        pv = customer.pv_array
        max_charge = spec.max_charge_kw * self.slot_hours
        max_discharge = spec.max_discharge_kw * self.slot_hours
        columns = (load, others, buy, sell)
        grouped = tuple(c[:, None, :] for c in columns)

        def project(decisions: FloatArray) -> FloatArray:
            # One 2-D population: the kernel's per-slot ufunc calls cost
            # less over one leading axis than over two.
            flat = kernels.clamp_decisions(
                decisions.reshape(-1, horizon),
                initial=spec.initial_kwh,
                capacity=spec.capacity_kwh,
                max_charge=max_charge,
                max_discharge=max_discharge,
            )
            return flat.reshape(decisions.shape)

        def score(decisions: FloatArray, rows: tuple[FloatArray, ...]) -> FloatArray:
            """Per-row cost of ``decisions`` against the given row data."""
            row_load, row_others, row_buy, row_sell = rows
            return kernels.battery_costs(
                decisions,
                initial=spec.initial_kwh,
                load=row_load,
                pv=pv,
                others=row_others,
                buy=row_buy,
                sell=row_sell,
                export_cap=self.export_cap,
                paper_literal=self.paper_literal,
                multiplicity=multiplicity,
            )

        mean = np.clip(x0, lower, upper)
        std = np.maximum(span / 4.0 * std_scales[:, None], _CE_STD_FLOOR)
        start = project(mean.copy())
        start_scores = score(start, columns)
        best_x = start.copy()
        best_f = np.where(np.isfinite(start_scores), start_scores, np.inf)

        rngs = [
            # Batch invariance: every game replays the solo per-customer
            # CE stream bit-for-bit.
            np.random.default_rng(customer.customer_id + 7919)  # repro: noqa[SEED003]
            for _ in range(n_games)
        ]
        n_iterations = np.zeros(n_games, dtype=int)
        alive = np.arange(n_games)
        span_id = TRACER.begin(
            "ce.minimize",
            category="optimization",
            parent_id=TRACER.current_span_id,
            dimension=horizon,
            n_samples=cfg.ce_samples,
            games=n_games,
        )
        for _ in range(cfg.ce_iterations):
            if not alive.size:
                break
            # Until the first game stops, a slice selects the running
            # games without the copies of fancy indexing.
            if alive.size == n_games:
                sel: slice | NDArray[np.int_] = slice(None)
                rows = grouped
            else:
                sel = alive
                rows = tuple(c[alive] for c in grouped)
            samples = np.empty((alive.size, cfg.ce_samples, horizon))
            for i, g in enumerate(alive):
                samples[i] = rngs[g].normal(
                    mean[g], std[g], size=(cfg.ce_samples, horizon)
                )
            np.clip(samples, lower, upper, out=samples)
            samples = project(samples)
            scores = score(samples, rows)
            PERF.add("ce.evaluations", cfg.ce_samples * alive.size)
            scores = np.where(np.isfinite(scores), scores, np.inf)

            elite_idx = np.argsort(scores, axis=1)[:, : cfg.ce_elites]
            picks = np.arange(alive.size)
            elites = samples[picks[:, None], elite_idx]
            first = elite_idx[:, 0]
            first_scores = scores[picks, first]
            better = first_scores < best_f[sel]
            best_f[sel] = np.where(better, first_scores, best_f[sel])
            best_x[sel] = np.where(
                better[:, None], samples[picks, first], best_x[sel]
            )
            n_iterations[sel] += 1

            new_mean = elites.mean(axis=1)
            new_std = elites.std(axis=1)
            mean[sel] = cfg.ce_smoothing * new_mean + (1 - cfg.ce_smoothing) * mean[sel]
            std[sel] = cfg.ce_smoothing * new_std + (1 - cfg.ce_smoothing) * std[sel]
            done = np.all(std[sel] < _CE_STD_FLOOR, axis=1)
            alive = alive[~done]
        TRACER.end(span_id)
        for n in n_iterations:
            PERF.observe("ce.iterations", int(n))
        if not np.all(np.isfinite(best_f)):
            raise RuntimeError(
                "cross-entropy optimization never found a finite objective value"
            )
        return best_x, best_f

    # ------------------------------------------------------------------
    # Batched best response
    # ------------------------------------------------------------------
    def _schedule_costs(
        self, tables: FloatArray, levels: FloatArray, power: FloatArray
    ) -> FloatArray:
        """Cost of each game's current schedule under its fresh table.

        ``levels`` is the task's (strictly increasing) power-level array;
        schedule powers are exact members of it, so ``searchsorted``
        recovers each slot's level index.  ``cumsum`` adds the gathered
        entries strictly left to right, the rounding of the historical
        per-slot accumulation loop.
        """
        idx = np.searchsorted(levels, power)
        games = np.arange(power.shape[0])[:, None]
        picked = tables[games, self._slot_index, idx]
        return np.asarray(np.cumsum(picked, axis=1)[:, -1])

    def _best_response(
        self,
        state: _LockstepState,
        rows: NDArray[np.int_],
        others: FloatArray,
        *,
        multiplicity: int,
        hysteresis_scale: float,
        ce_std_scales: FloatArray,
    ) -> None:
        """One inner-loop pass of Algorithm 1 for one archetype.

        Alternates DP appliance scheduling (battery fixed) and CE battery
        optimization (appliances fixed) ``config.inner_iterations`` times
        in every game of ``rows``, updating ``state`` in place.

        ``others`` must exclude all ``multiplicity`` instances of the
        archetype; the herd move of identical instances is priced inside
        the marginal tables (see
        :func:`repro.netmetering.cost.marginal_tables`).

        ``hysteresis_scale`` anneals the acceptance threshold: the outer
        loop raises it round by round, so best-response cycling between
        near-equal strategies dies out and the dynamics terminate at an
        epsilon-equilibrium (the scheduling game has no exact potential,
        so plain best response may cycle forever).
        """
        threshold_rate = self.config.hysteresis * hysteresis_scale
        customer = state.customer
        buy = self.buy_rates[rows]
        sell = self.sell_rates[rows]

        def costs_per_slot(trading: FloatArray) -> FloatArray:
            return customer_cost_terms(
                trading,
                others,
                buy_rates=buy,
                sell_rates=sell,
                export_cap_kwh=self.export_cap,
                paper_literal=self.paper_literal,
                multiplicity=multiplicity,
            )

        for _ in range(self.config.inner_iterations):
            # The acceptance threshold is a fraction of the customer's
            # whole daily bill: relative-to-move thresholds fail when a
            # move's own marginal cost is near zero (flat cost valleys
            # created by battery arbitrage), which is exactly where
            # best-response cycling lives.
            per_slot = costs_per_slot(state.trading[rows])
            threshold = threshold_rate * (np.abs(per_slot.sum(axis=1)) + 1e-9)
            # Line 4: appliance schedules via DP, one task at a time.
            for index, task in enumerate(customer.tasks):
                # Deterministic per-(customer, task) jitter breaks cost
                # ties: a zero-price attack makes whole windows exactly
                # free, and without it every customer's DP would herd into
                # the same slot of the window.
                jitter, levels = self._task_tables(customer, index)
                power = state.power[rows, index, :]
                base_trading = state.trading[rows] - power * self.slot_hours
                tables = marginal_tables(
                    base_trading,
                    others,
                    levels,
                    buy_rates=buy,
                    sell_rates=sell,
                    export_cap_kwh=self.export_cap,
                    paper_literal=self.paper_literal,
                    multiplicity=multiplicity,
                    slot_hours=self.slot_hours,
                )
                tables += jitter
                tables[:, :, 0] = 0.0  # idling stays exactly free
                schedules, optimal_costs = schedule_appliance_tables(
                    task, tables, slot_hours=self.slot_hours
                )
                current_costs = self._schedule_costs(tables, levels, power)
                accepted = np.flatnonzero(current_costs - optimal_costs > threshold)
                if accepted.size:
                    for i in accepted:
                        state.power[rows[i], index, :] = schedules[i].load
                    state.refresh(rows[accepted])
            # Line 5: battery trajectory via cross-entropy optimization.
            if customer.battery.capacity_kwh > 0:
                best_x, best_f = self._ce_battery(
                    customer,
                    state.load[rows],
                    others,
                    buy,
                    sell,
                    state.battery[rows],
                    multiplicity,
                    ce_std_scales,
                )
                current_costs = costs_per_slot(state.trading[rows]).sum(axis=1)
                # Accept only clear improvements: chasing CE sampling
                # noise keeps the outer loop from converging.
                accepted = current_costs - best_f > threshold
                if accepted.any():
                    state.battery[rows[accepted]] = best_x[accepted]
                    state.refresh(rows[accepted])

    # ------------------------------------------------------------------
    # Outer loop
    # ------------------------------------------------------------------
    def solve(
        self,
        *,
        rng: np.random.Generator,
        warm_starts: Sequence[GameResult | None] | None = None,
        ce_std_scale: float = 1.0,
    ) -> list[GameResult]:
        """Run Algorithm 1 to (approximate) convergence in every game.

        ``rng`` draws each round's customer order, one permutation per
        round shared by every game still running.  ``warm_starts[g]``,
        when given, replaces game ``g``'s greedy initial states with a
        previous :class:`GameResult` for the same community (e.g. the
        nearest cached equilibrium under a similar price vector) and
        narrows that game's CE sampling density by ``ce_std_scale``.
        """
        n_games = self.n_games
        if warm_starts is None:
            warm_starts = [None] * n_games
        if len(warm_starts) != n_games:
            raise ValueError(
                f"{len(warm_starts)} warm starts for {n_games} games"
            )
        for warm in warm_starts:
            if warm is not None and len(warm.states) != len(
                self.community.customers
            ):
                raise ValueError(
                    f"warm start has {len(warm.states)} archetype states "
                    f"for {len(self.community.customers)} archetypes"
                )
        ce_scales = np.array(
            [ce_std_scale if w is not None else 1.0 for w in warm_starts]
        )

        states = [
            self._initial_state(
                customer,
                [w.states[a] if w is not None else None for w in warm_starts],
            )
            for a, customer in enumerate(self.community.customers)
        ]
        counts = self.community.counts
        total = np.zeros((n_games, self.community.horizon))
        for state, count in zip(states, counts):
            total += count * state.trading

        residuals: list[list[float]] = [[] for _ in range(n_games)]
        rounds = np.zeros(n_games, dtype=int)
        converged = np.zeros(n_games, dtype=bool)
        active = np.arange(n_games)

        for round_no in range(1, self.config.max_rounds + 1):
            if not active.size:
                break
            order = rng.permutation(len(states))
            max_delta = np.zeros(active.size)
            with TRACER.span(
                "game.round", round=round_no, games=int(active.size)
            ):
                for index in order:
                    state, count = states[index], counts[index]
                    old_trading = state.trading[active]
                    others = total[active] - count * old_trading
                    with TRACER.span(
                        "game.customer",
                        customer=int(index),
                        multiplicity=int(count),
                    ):
                        self._best_response(
                            state,
                            active,
                            others,
                            multiplicity=count,
                            hysteresis_scale=float(round_no),
                            ce_std_scales=ce_scales[active],
                        )
                    new_trading = state.trading[active]
                    delta = np.max(np.abs(new_trading - old_trading), axis=1)
                    max_delta = np.maximum(max_delta, delta)
                    total[active] = total[active] + count * (
                        new_trading - old_trading
                    )
            for i, g in enumerate(active):
                residuals[g].append(float(max_delta[i]))
                rounds[g] = round_no
            done = max_delta < self.config.convergence_tol
            converged[active[done]] = True
            active = active[~done]

        results = []
        for g in range(n_games):
            PERF.add("game.solves")
            PERF.add("game.rounds", int(rounds[g]))
            PERF.observe("game.rounds", int(rounds[g]))
            results.append(
                GameResult(
                    states=tuple(s.state_for(g) for s in states),
                    counts=counts,
                    rounds=int(rounds[g]),
                    converged=bool(converged[g]),
                    residuals=tuple(residuals[g]),
                )
            )
        return results


class SchedulingGame:
    """Algorithm 1 for one guideline-price vector.

    The one-game case of :class:`LockstepGameSolver`: every method runs
    the lockstep code with ``G = 1``.
    """

    def __init__(
        self,
        community: Community,
        prices: ArrayLike,
        *,
        sellback_divisor: float = 2.0,
        config: GameConfig | None = None,
        tariff: "Tariff | None" = None,
    ) -> None:
        prices_arr = np.asarray(prices, dtype=float)
        if prices_arr.shape != (community.horizon,):
            raise ValueError(
                f"prices must have shape ({community.horizon},), got {prices_arr.shape}"
            )
        self._solver = LockstepGameSolver(
            community,
            [prices_arr],
            sellback_divisor=sellback_divisor,
            config=config,
            tariff=tariff,
        )
        self.community = community
        self.config = self._solver.config
        self.tariff = tariff
        self.cost_model = self._solver.cost_models[0]

    def initial_state(self, customer: Customer) -> CustomerState:
        """Greedy warm start: price-only scheduling, idle battery."""
        return self._solver._initial_state(customer, [None]).state_for(0)

    def best_response(
        self,
        state: CustomerState,
        others_trading: NDArray[np.float64],
        *,
        multiplicity: int = 1,
        hysteresis_scale: float = 1.0,
        ce_std_scale: float = 1.0,
    ) -> CustomerState:
        """One inner-loop pass of Algorithm 1 for a single customer.

        See :meth:`LockstepGameSolver._best_response`; ``others_trading``
        must exclude all ``multiplicity`` instances of the archetype.
        """
        lockstep = self._solver._initial_state(state.customer, [state])
        self._solver._best_response(
            lockstep,
            np.zeros(1, dtype=int),
            np.asarray(others_trading, dtype=float)[None, :],
            multiplicity=multiplicity,
            hysteresis_scale=hysteresis_scale,
            ce_std_scales=np.array([ce_std_scale]),
        )
        return lockstep.state_for(0)

    def solve(
        self,
        *,
        rng: np.random.Generator | None = None,
        warm_start: GameResult | None = None,
        ce_std_scale: float = 1.0,
    ) -> GameResult:
        """Run Algorithm 1 to (approximate) convergence.

        ``warm_start`` replaces the greedy initial states with a previous
        :class:`GameResult` for the same community (e.g. the nearest
        cached equilibrium under a similar price vector), typically
        cutting rounds-to-convergence sharply; ``ce_std_scale`` then
        narrows the CE sampling density around the warm trajectories
        (it has no effect on a cold start).  Both default to the
        historical cold start.
        """
        [result] = self._solver.solve(
            rng=rng if rng is not None else np.random.default_rng(0),
            warm_starts=[warm_start],
            ce_std_scale=ce_std_scale,
        )
        return result


def solve_games(
    community: Community,
    price_vectors: Sequence[ArrayLike],
    *,
    sellback_divisor: float = 2.0,
    config: GameConfig | None = None,
    seed: int = 0,
    warm_starts: Sequence[GameResult | None] | None = None,
    ce_std_scale: float = 1.0,
    tariff: "Tariff | None" = None,
) -> list[GameResult]:
    """Solve independent games over one community in a lockstep batch.

    Entry ``g`` of the result is bitwise-identical to::

        SchedulingGame(
            community, price_vectors[g],
            sellback_divisor=sellback_divisor, config=config,
            tariff=tariff,
        ).solve(
            rng=np.random.default_rng(seed),
            warm_start=warm_starts[g],
            ce_std_scale=ce_std_scale,
        )

    while sharing every array operation across the batch.
    """
    solver = LockstepGameSolver(
        community,
        price_vectors,
        sellback_divisor=sellback_divisor,
        config=config,
        tariff=tariff,
    )
    return solver.solve(
        rng=np.random.default_rng(seed),
        warm_starts=warm_starts,
        ce_std_scale=ce_std_scale,
    )

"""Equilibrium diagnostics for the scheduling game.

The iterative best-response loop terminates at an approximate
equilibrium; these diagnostics quantify *how* approximate:

- :func:`nash_gap` — the largest cost improvement any single customer
  could still realize by unilaterally re-optimizing (the epsilon of the
  epsilon-Nash equilibrium);
- :func:`cost_breakdown` — per-archetype realized costs, for inspecting
  who pays what at the fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import GameConfig
from repro.scheduling.game import GameResult, SchedulingGame


@dataclass(frozen=True)
class NashGapReport:
    """Unilateral-improvement audit of a game outcome."""

    per_customer_gap: tuple[float, ...]
    per_customer_cost: tuple[float, ...]

    @property
    def max_gap(self) -> float:
        """The equilibrium's epsilon: the largest remaining improvement."""
        return max(self.per_customer_gap)

    @property
    def max_relative_gap(self) -> float:
        """Largest improvement as a fraction of that customer's cost."""
        gaps = []
        for gap, cost in zip(self.per_customer_gap, self.per_customer_cost):
            denominator = max(abs(cost), 1e-9)
            gaps.append(gap / denominator)
        return max(gaps)


def nash_gap(game: SchedulingGame, result: GameResult) -> NashGapReport:
    """Measure the epsilon of an (approximate) equilibrium.

    For each archetype, one more full best-response pass is computed from
    the fixed point; the cost decrease it achieves is that customer's
    remaining incentive to deviate.  A true Nash equilibrium has zero gap
    everywhere; the annealed-hysteresis loop targets gaps below the
    hysteresis fraction of each customer's bill.
    """
    total = result.community_trading
    gaps = []
    costs = []
    for state, count in zip(result.states, result.counts):
        others = total - count * state.trading
        current_cost = float(
            game.cost_model.customer_cost_per_slot(
                state.trading, others, multiplicity=count
            ).sum()
        )
        improved = game.best_response(
            state, others, multiplicity=count, hysteresis_scale=0.0
        )
        improved_cost = float(
            game.cost_model.customer_cost_per_slot(
                improved.trading, others, multiplicity=count
            ).sum()
        )
        gaps.append(max(current_cost - improved_cost, 0.0))
        costs.append(current_cost)
    return NashGapReport(
        per_customer_gap=tuple(gaps), per_customer_cost=tuple(costs)
    )


def cost_breakdown(
    game: SchedulingGame,
    result: GameResult,
) -> tuple[float, ...]:
    """Realized per-instance cost of each archetype at the fixed point."""
    total = result.community_trading
    costs = []
    for state, count in zip(result.states, result.counts):
        others = total - count * state.trading
        costs.append(
            float(
                game.cost_model.customer_cost_per_slot(
                    state.trading, others, multiplicity=count
                ).sum()
            )
        )
    return tuple(costs)


def equilibrium_quality(
    game: SchedulingGame,
    result: GameResult,
    *,
    config: GameConfig | None = None,
) -> bool:
    """True when every customer's remaining gap is within the hysteresis
    budget the loop was run with."""
    config = config if config is not None else game.config
    report = nash_gap(game, result)
    budget = config.hysteresis * config.max_rounds
    for gap, cost in zip(report.per_customer_gap, report.per_customer_cost):
        if gap > budget * max(abs(cost), 1e-9) + 1e-6:
            return False
    return True

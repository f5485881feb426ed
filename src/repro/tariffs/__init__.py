"""First-class tariff layer (ROADMAP item 3: Table 1 as one matrix cell).

Public surface: the :class:`Tariff` protocol and registry, and the
concrete catalog (:class:`FlatNetMetering`, :class:`BuySellSpread`,
:class:`TimeOfUse`, :class:`MonthlyNetting`).  A tariff is a choice of
buy/sell rates, export cap and sign reading for the one cost model,
:class:`~repro.netmetering.cost.NetMeteringCostModel`.  See
docs/SCENARIOS.md for the config grammar and the tariff × attack ×
PV-penetration matrix these feed.
"""

from repro.tariffs.base import (
    Tariff,
    register_tariff,
    tariff_fingerprint,
    tariff_from_dict,
    tariff_kinds,
    tariff_to_dict,
)
from repro.tariffs.catalog import (
    NAMED_TARIFFS,
    BuySellSpread,
    FlatNetMetering,
    MonthlyNetting,
    TimeOfUse,
    named_tariff,
)

__all__ = [
    "BuySellSpread",
    "FlatNetMetering",
    "MonthlyNetting",
    "NAMED_TARIFFS",
    "Tariff",
    "TimeOfUse",
    "named_tariff",
    "register_tariff",
    "tariff_fingerprint",
    "tariff_from_dict",
    "tariff_kinds",
    "tariff_to_dict",
]

"""Per-figure/table reproduction drivers.

One module per table or figure in the paper's evaluation:

========================  ====================================================
Module                    Paper content
========================  ====================================================
``fig01_reuse``           Figure 1: reference distance from line load
``fig04_retention_curve`` Figure 4: access time vs. time since write
``fig06_typical``         Figure 6: 6T frequency and 3T1D retention/perf/power
``fig07_leakage``         Figure 7: leakage power distributions
``fig08_line_retention``  Figure 8: line retention of good/median/bad chips
``fig09_schemes``         Figure 9: 8 line-level schemes x 3 chips
``fig10_hundred_chips``   Figure 10: perf & power of 100 chips, 3 schemes
``fig11_associativity``   Figure 11: associativity sweep x 3 chips x 3 schemes
``fig12_sensitivity``     Figure 12: mu-sigma/mu performance surfaces
``table3``                Table 3: per-node summary (ideal 6T / 1X 6T / 3T1D)
``techcompare``           Cross-technology sweep (3T1D / STT-RAM / var-DRAM)
``geomsweep``             Geometry/banking sweep (size x assoc x banks)
========================  ====================================================

Every module exposes ``run(...)`` returning a result dataclass and
``main()`` that prints the paper-style rows, and registers an
:class:`~repro.engine.registry.Experiment` when imported.  The drivers
are imported lazily -- by attribute access here, or all at once, in
paper order (:data:`DRIVERS`), when the registry is first queried -- so
``python -m repro.experiments.<driver>`` runs a module that the package
import has not already executed.  The ``benchmarks/`` suite invokes
``run`` with reduced Monte-Carlo scale so a full regeneration stays
laptop-sized.
"""

import importlib
from types import ModuleType
from typing import Tuple

from repro.experiments.runner import ExperimentContext
from repro.experiments import reporting

#: Driver modules in paper order (the order the registry reports).
DRIVERS: Tuple[str, ...] = (
    "fig01_reuse",
    "fig04_retention_curve",
    "fig06_typical",
    "fig07_leakage",
    "fig08_line_retention",
    "fig09_schemes",
    "fig10_hundred_chips",
    "fig11_associativity",
    "fig12_sensitivity",
    "table3",
    "techcompare",
    "geomsweep",
)


def __getattr__(name: str) -> ModuleType:
    if name in DRIVERS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["DRIVERS", "ExperimentContext", "reporting", *DRIVERS]

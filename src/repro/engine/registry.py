"""The unified Experiment protocol and registry.

Every paper experiment registers one :class:`Experiment`: a uniform
``run(context) -> result`` / ``report(result) -> str`` pair plus two
optional hooks that remove the special cases ``run_all`` used to carry:

* ``csv_rows(result)`` yields :class:`CsvExport` rows for plot-shaped
  experiments (previously an if/elif chain keyed on experiment name);
* ``default_context_overrides(context)`` returns context-field overrides
  the experiment wants by default (previously ``table3`` silently halved
  the chip count inside ``run_all``).

The registry preserves registration order, which is the canonical
paper order (``repro.experiments.__init__`` imports the modules in that
order).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError


class CsvExport(NamedTuple):
    """One machine-readable series emitted by an experiment."""

    filename: str
    headers: Sequence[str]
    rows: Iterable[Sequence[object]]


@dataclass(frozen=True)
class Experiment:
    """One registered experiment behind the uniform engine API."""

    name: str
    run: Callable[[Any], Any]
    """``run(context) -> result``; the context is an
    :class:`~repro.experiments.runner.ExperimentContext`."""
    report: Callable[[Any], str]
    """``report(result) -> str``: the paper-style text rendering."""
    csv_rows: Optional[Callable[[Any], Iterable[CsvExport]]] = None
    """Optional hook yielding machine-readable exports of the result."""
    default_context_overrides: Optional[
        Callable[[Any], Mapping[str, Any]]
    ] = None
    """Optional hook mapping the base context to field overrides this
    experiment applies by default (e.g. table3 halves the chip count)."""
    module: Optional[str] = None
    """Defining module (dotted name), used for content-keyed caching."""

    def context_for(self, context: Any) -> Any:
        """The context this experiment actually runs under."""
        if self.default_context_overrides is None:
            return context
        overrides = dict(self.default_context_overrides(context))
        if not overrides:
            return context
        return context.with_overrides(**overrides)

    def csv_exports(self, result: Any) -> Tuple[CsvExport, ...]:
        """All machine-readable exports for ``result`` (may be empty)."""
        if self.csv_rows is None:
            return ()
        return tuple(self.csv_rows(result))

    def execute(
        self, context: Any, cache: Optional[Any] = None
    ) -> Tuple[Any, bool]:
        """Run under this experiment's effective context, memoised.

        Applies ``default_context_overrides``, consults ``cache`` (a
        :class:`~repro.engine.cache.ResultCache`, keyed on the effective
        context) when given, and stores fresh results back.  Returns
        ``(result, cached)`` -- the one code path ``run_all`` and the
        per-experiment CLIs share, so cached and recomputed runs cannot
        drift apart.
        """
        context = self.context_for(context)
        key = None
        if cache is not None:
            key = cache.key_for(self, context)
            hit = cache.get(key)
            if hit is not None:
                return hit, True
        result = self.run(context)
        if cache is not None and key is not None:
            cache.put(key, result)
        return result, False

    def cli(self, argv: Optional[Sequence[str]] = None) -> None:
        """Run this experiment's command-line entry point.

        Every registered experiment exposes the shared engine flags
        (``--workers``/``--cache-dir``/``--metrics``/``--resume``/
        ``--checkpoint-dir``/...); see
        :func:`repro.experiments.cli.experiment_main`.
        """
        # Lazy: the registry must not pull the driver CLI in at import.
        from repro.experiments.cli import experiment_main

        experiment_main(self, argv)


_REGISTRY: Dict[str, Experiment] = {}


def register_experiment(experiment: Experiment) -> Experiment:
    """Add (or re-register) an experiment; returns it for assignment."""
    if not experiment.name:
        raise ConfigurationError("experiment name must be non-empty")
    _REGISTRY[experiment.name] = experiment
    return experiment


def get_experiment(name: str) -> Experiment:
    """Look up one registered experiment by name."""
    _populate()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def all_experiments() -> Tuple[Experiment, ...]:
    """Every registered experiment, in registration (paper) order."""
    _populate()
    return tuple(_REGISTRY.values())


def experiment_names() -> Tuple[str, ...]:
    """Names of all registered experiments, in registration order."""
    return tuple(e.name for e in all_experiments())


def _populate() -> None:
    # Importing the driver modules registers them; lazy so the engine
    # itself never depends on the drivers at import.  Drivers imported
    # earlier (one test, one ``-m`` entry point) registered out of
    # order, so the paper order is restored once, ahead of any
    # third-party registrations.
    global _populated
    with _POPULATE_LOCK:
        if _populated:
            return
        import importlib

        from repro.experiments import DRIVERS

        names = [
            importlib.import_module(f"repro.experiments.{module}")
            .EXPERIMENT.name
            for module in DRIVERS
        ]
        ordered = {name: _REGISTRY.pop(name) for name in names}
        ordered.update(_REGISTRY)
        _REGISTRY.clear()
        _REGISTRY.update(ordered)
        _populated = True


_POPULATE_LOCK = threading.Lock()
_populated = False


__all__ = [
    "CsvExport",
    "Experiment",
    "register_experiment",
    "get_experiment",
    "all_experiments",
    "experiment_names",
]

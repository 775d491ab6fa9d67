"""Byzantine tolerance curves: how much persistent hostility a protocol survives.

Where :mod:`repro.analysis.stabilization` measures recovery after *transient*
faults, this module measures stabilization against *persistent* adversaries:
for each Byzantine fraction ``f`` it runs repeated trials with a
:class:`~repro.adversary.byzantine.ByzantineSpec` on the
:class:`~repro.engine.run_config.RunConfig` and reports the fraction of
trials whose honest sub-population stabilized within the cap.  The tolerance
curve is that fraction as a function of ``f``; the *tolerance threshold* is
the largest ``f`` before the curve first drops below a success criterion.

Censoring follows the stabilization-analysis conventions: trials that hit the
interaction cap never count as stabilized but stay in the denominator (the
plateau below 1.0 is the honest failure rate within the cap), and their
parallel times contribute the (censored) cap time, so the summary statistics
stay conservative rather than silently optimistic.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.adversary.byzantine import ByzantineSpec
from repro.analysis.stabilization import recovered_fraction
from repro.engine.results import SimulationResult, TrialStatistics


def stabilized_fraction(results: Sequence[SimulationResult]) -> float:
    """Fraction of trials whose stop condition fired before the cap.

    Identical censoring convention to
    :func:`~repro.analysis.stabilization.recovered_fraction` (capped trials
    stay in the denominator); named for the persistent-adversary reading.
    """
    return recovered_fraction(results)


def tolerance_point(
    fraction: float,
    results: Sequence[SimulationResult],
    label: str = "",
) -> Dict:
    """One tolerance-curve row for the trials run at Byzantine fraction ``f``.

    ``mean time`` / ``p90 time`` are parallel times to the stop condition
    with censored trials contributing their cap time.
    """
    if not results:
        raise ValueError("tolerance_point needs at least one result")
    times = [result.parallel_time for result in results]
    statistics = TrialStatistics.from_values(
        label or f"byzantine f={fraction}", results[0].n, times
    )
    return {
        "fraction": fraction,
        "trials": len(results),
        "stabilized fraction": stabilized_fraction(results),
        "mean time": statistics.mean,
        "p90 time": statistics.quantile(0.9),
    }


def tolerance_curve(
    results_by_fraction: Mapping[float, Sequence[SimulationResult]],
    label: str = "",
) -> List[Dict]:
    """Tolerance-curve rows, ordered by increasing Byzantine fraction."""
    return [
        tolerance_point(fraction, results_by_fraction[fraction], label=label)
        for fraction in sorted(results_by_fraction)
    ]


def max_tolerated_fraction(
    rows: Sequence[Mapping], threshold: float = 0.5
) -> Optional[float]:
    """The largest fraction before the curve first fails the criterion.

    Scans the rows in increasing-``fraction`` order and returns the last
    fraction whose ``stabilized fraction`` is at least ``threshold`` *before*
    the first failure -- tolerance is a threshold phenomenon, so a later
    accidental success (small-sample noise above a failing fraction) does not
    extend it.  Returns ``None`` when even the smallest measured fraction
    fails.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    tolerated: Optional[float] = None
    for row in sorted(rows, key=lambda row: row["fraction"]):
        if row["stabilized fraction"] < threshold:
            break
        tolerated = row["fraction"]
    return tolerated


def measure_tolerance(
    protocol_factory: Callable,
    fractions: Sequence[float],
    trials: int,
    run,
    strategy: str = "worst_case",
    configuration_factory: Optional[Callable] = None,
    label: str = "",
) -> List[Dict]:
    """Measure one protocol's tolerance curve through the experiment harness.

    Runs ``trials`` independent trials at every Byzantine fraction (same
    ``run.seed`` root, so the honest trial streams are matched across
    fractions) and returns the :func:`tolerance_curve` rows.  ``run`` selects
    engine, stop condition, seed, caps, and worker count as usual; its
    ``byzantine`` field is overridden per fraction.
    """
    # Imported here: analysis is a lower layer than the experiment harness.
    from repro.experiments.harness import run_trials

    # One protocol object for every fraction, so the table engines compile once.
    protocol = protocol_factory()
    results_by_fraction: Dict[float, Sequence[SimulationResult]] = {}
    for fraction in fractions:
        spec = ByzantineSpec(fraction=float(fraction), strategy=strategy)
        results_by_fraction[float(fraction)] = run_trials(
            lambda: protocol,
            trials,
            run=run.replace(byzantine=spec),
            configuration_factory=configuration_factory,
        )
    return tolerance_curve(results_by_fraction, label=label)


__all__ = [
    "max_tolerated_fraction",
    "measure_tolerance",
    "stabilized_fraction",
    "tolerance_curve",
    "tolerance_point",
]

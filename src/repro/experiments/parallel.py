"""Parallel execution of independent simulation runs.

Sweeps are embarrassingly parallel: every run is hermetic — all
randomness flows from ``RandomStreams(config.seed)``, and a fully resolved
:class:`~repro.core.config.SimulationConfig` (scheme and seed baked in) is
the run's complete input.  Fanning a flattened list of
:class:`RunSpec` tasks across a ``ProcessPoolExecutor`` therefore produces
**bit-identical results to the serial path**; only the ``profile`` field
(wall-clock timing, excluded from equality) differs.

Seeds are fixed when the specs are *built* — the same seed goes into
every scheme's config at a sweep point — not by any ordering of
execution, so no pool schedule changes which seed a run gets.  Same seed
is not same draws: schemes at one seed do not share mobility or demand.

An optional :class:`~repro.experiments.cache.ResultCache` short-circuits
specs whose configuration was already simulated by this or any earlier
process; only the misses are dispatched.

The harness tolerates misbehaving runs instead of losing the sweep:

* every spec gets up to ``attempts`` executions; a run that raises is
  retried and only **quarantined** (reported as a :class:`RunFailure`)
  after its last attempt fails,
* a crashed worker process (``BrokenProcessPool``) poisons every future
  on the pool, so the pool is rebuilt and the innocent casualties are
  re-dispatched *without* being charged an attempt,
* an optional per-run ``timeout`` (pool mode only) kills the stuck
  workers and re-dispatches the unfinished remainder the same way,
* with ``salvage=True`` a sweep with quarantined specs still returns —
  the failed positions hold ``None`` — instead of raising
  :class:`RunCrashed`.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.config import SimulationConfig
from repro.core.metrics import Results
from repro.core.simulation import run_simulation
from repro.experiments.cache import ResultCache

__all__ = [
    "RunCrashed",
    "RunFailure",
    "RunSpec",
    "execute_runs",
    "jobs_from_env",
    "resolve_jobs",
]


@dataclass(frozen=True)
class RunSpec:
    """One simulation task: a fully resolved config plus a display label."""

    config: SimulationConfig
    label: str = ""


@dataclass(frozen=True)
class RunFailure:
    """One spec that exhausted its attempts; quarantined from the sweep."""

    index: int
    label: str
    attempts: int
    error: str


class RunCrashed(RuntimeError):
    """A spec exhausted its attempts and salvage mode is off."""

    def __init__(self, failures: Sequence[RunFailure]) -> None:
        self.failures = list(failures)
        lines = ", ".join(
            f"{f.label or f'spec {f.index}'} ({f.error})" for f in self.failures
        )
        super().__init__(
            f"{len(self.failures)} run(s) failed after retries: {lines}"
        )


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: None/0 means one worker per core."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return int(jobs)


def jobs_from_env(default: int = 1) -> int:
    """Worker count from the ``REPRO_JOBS`` environment variable.

    The environment contract intentionally differs from the CLI's
    ``--jobs`` flag: ``--jobs 0`` means one worker per core (an explicit
    request for maximum fan-out), while ``REPRO_JOBS=0`` — and an unset or
    empty variable — means **serial**.  Environment-driven batch runs (CI,
    the benchmark suite) must stay on the deterministic single-process
    path unless parallelism is asked for with a positive count, so that
    timing baselines are comparable across machines.
    """
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"REPRO_JOBS must be an integer >= 0, got {raw!r}")
    return value if value > 0 else 1


def _stop_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*: kill the workers, drop the queued work.

    ``shutdown(cancel_futures=True)`` still waits for running tasks, which
    is exactly wrong for a hung or crash-looping worker.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    for process in processes:
        process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


def execute_runs(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[str], None]] = None,
    *,
    timeout: Optional[float] = None,
    attempts: int = 2,
    salvage: bool = False,
    failures_out: Optional[List[RunFailure]] = None,
    runner: Callable[[SimulationConfig], Results] = run_simulation,
) -> List[Optional[Results]]:
    """Run every spec and return results in spec order.

    ``jobs == 1`` executes serially in-process (the reference path);
    ``jobs > 1`` fans the non-cached specs out over a process pool
    (``jobs == 0`` / None uses every core).  With a ``cache``, hits are
    resolved without simulating and misses are stored after execution.

    ``timeout`` bounds one run's wall-clock seconds (pool mode only: a
    serial run cannot be interrupted from within its own process);
    ``attempts`` is the per-spec execution budget before quarantine;
    ``salvage`` returns partial results (``None`` at failed positions)
    instead of raising :class:`RunCrashed`; ``failures_out`` receives the
    :class:`RunFailure` records either way.  ``runner`` exists for the
    fault-tolerance tests; the simulation path never overrides it.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    if timeout is not None and not 0 < timeout < math.inf:
        raise ValueError(f"timeout must be positive and finite, got {timeout}")
    jobs = resolve_jobs(jobs)
    results: List[Optional[Results]] = [None] * len(specs)
    pending: List[int] = []
    for index, spec in enumerate(specs):
        cached = cache.get(spec.config) if cache is not None else None
        if cached is not None:
            results[index] = cached
            if progress is not None:
                progress(f"{spec.label} [cached]")
        else:
            pending.append(index)

    tries: Dict[int, int] = {index: 0 for index in pending}
    failures: List[RunFailure] = []

    def note(index: int) -> None:
        if progress is None:
            return
        label = specs[index].label
        progress(label if tries[index] == 1 else f"{label} [retry {tries[index]}]")

    def settle(index: int, error: str, queue: List[int]) -> None:
        """A charged attempt failed: requeue or quarantine."""
        if tries[index] < attempts:
            queue.append(index)
            return
        failures.append(
            RunFailure(
                index=index,
                label=specs[index].label,
                attempts=tries[index],
                error=error,
            )
        )
        if progress is not None:
            progress(f"{specs[index].label} [quarantined: {error}]")

    if jobs == 1 or len(pending) <= 1:
        queue = list(pending)
        while queue:
            index = queue.pop(0)
            tries[index] += 1
            note(index)
            try:
                results[index] = runner(specs[index].config)
            except Exception as exc:  # quarantine any failure, don't die
                settle(index, repr(exc), queue)
    else:
        queue = list(pending)
        while queue:
            batch, queue = queue, []
            pool = ProcessPoolExecutor(max_workers=min(jobs, len(batch)))
            futures = {}
            for index in batch:
                tries[index] += 1
                note(index)
                futures[index] = pool.submit(runner, specs[index].config)
            pool_dead = False
            for index, future in futures.items():
                if pool_dead:
                    # The pool died under this future: its run may never
                    # have started, so the attempt is refunded.
                    tries[index] -= 1
                    queue.append(index)
                    continue
                try:
                    results[index] = future.result(timeout=timeout)
                except FutureTimeoutError:
                    _stop_pool(pool)
                    pool_dead = True
                    settle(index, f"timed out after {timeout}s", queue)
                except BrokenProcessPool:
                    # The worker running *some* batch member died; charge
                    # the first observer (re-run sorts out the innocent)
                    # and refund the rest.
                    pool_dead = True
                    settle(index, "worker process crashed", queue)
                except Exception as exc:  # quarantine any failure
                    settle(index, repr(exc), queue)
            if not pool_dead:
                pool.shutdown()

    if failures_out is not None:
        failures_out.extend(failures)
    if failures and not salvage:
        raise RunCrashed(failures)
    if cache is not None:
        for index in pending:
            if results[index] is not None:
                cache.put(specs[index].config, results[index])
    return results

"""Pluggable replication executors: serial and process-parallel.

DESP-C++ made every replication a self-contained, replayable unit; our
:func:`~repro.core.model.run_replication` is likewise a pure function of
``(frozen VOODBConfig, seed)``.  This module exploits that purity to fan
replication jobs out across workers:

* :class:`SerialExecutor` — runs jobs in-process, in order (the §4.2.2
  baseline, and the only option for non-picklable replication callables);
* :class:`ParallelExecutor` — maps jobs over a
  :class:`concurrent.futures.ProcessPoolExecutor`, warming the shared
  OCB database cache once per worker via the pool initializer.

Both return metric dictionaries **in job order** regardless of worker
completion order, and both consult an optional
:class:`~repro.experiments.cache.ReplicationCache` first — so serial and
parallel runs over the same seed set produce bit-identical statistics.

The worker count comes from the ``--jobs`` CLI flag or the
``VOODB_JOBS`` environment variable (:func:`default_jobs`);
:func:`make_executor` picks the executor class from it.
"""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.model import build_database, run_replication
from repro.core.parameters import VOODBConfig
from repro.experiments.cache import ReplicationCache, default_cache

#: Environment variable holding the default worker count.
JOBS_ENV = "VOODB_JOBS"

#: One replication: ``(config, seed) -> {metric: value}``.
ReplicationFn = Callable[[VOODBConfig, int], Dict[str, float]]


def standard_replication(config: VOODBConfig, seed: int) -> Dict[str, float]:
    """The §4.3 protocol: COLDN warm-up + HOTN measured, flattened."""
    return run_replication(config, seed=seed).to_metrics()


def replication_name(fn: ReplicationFn) -> str:
    """Qualified name of a replication protocol (cache-key component)."""
    return f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"


def is_module_level(fn: ReplicationFn) -> bool:
    """Whether ``fn`` is a plain module-level function.

    Only module-level functions are reliably picklable for process
    pools, and only they have qualified names stable enough to key the
    replication cache: two lambdas in the same scope share the qualname
    ``...<locals>.<lambda>``, and a bound method's qualname omits the
    instance state it closes over — either would collide in the cache.
    """
    if not inspect.isfunction(fn):  # rejects bound methods, builtins, partials
        return False
    if fn.__module__ == "__main__":
        # Unqualifiable: two scripts' '__main__.replicate' would share a
        # cache key (and spawn workers couldn't re-import it anyway).
        return False
    qualname = fn.__qualname__
    return "<locals>" not in qualname and "<lambda>" not in qualname


@dataclass(frozen=True)
class ReplicationJob:
    """One unit of work: run ``replication(config, seed)``."""

    config: VOODBConfig
    seed: int
    replication: ReplicationFn = field(default=standard_replication)

    def execute(self) -> Dict[str, float]:
        return self.replication(self.config, self.seed)


def default_jobs() -> int:
    """Worker count from ``VOODB_JOBS`` (fallback 1 = serial)."""
    value = os.environ.get(JOBS_ENV, "")
    if not value:
        return 1
    try:
        count = int(value)
    except ValueError:
        raise ValueError(f"{JOBS_ENV} must be an integer >= 1, got {value!r}") from None
    if count < 1:
        raise ValueError(f"{JOBS_ENV} must be >= 1, got {count}")
    return count


class Executor:
    """Common cache-aware driver; subclasses supply ``_execute``.

    ``run`` resolves cache hits up front, hands only the misses to the
    subclass, stores fresh results back, and returns metrics in job
    order — the ordering contract that keeps downstream
    :class:`~repro.despy.stats.ReplicationAnalyzer` aggregation
    bit-identical across executors.
    """

    def __init__(self, cache: Optional[ReplicationCache] = None) -> None:
        self.cache = cache

    # -- subclass hook --------------------------------------------------
    def _execute(
        self, indexed_jobs: Sequence[Tuple[int, ReplicationJob]]
    ) -> Iterable[Tuple[int, Dict[str, float]]]:
        raise NotImplementedError

    # -- driver ---------------------------------------------------------
    def run(self, jobs: Iterable[ReplicationJob]) -> List[Dict[str, float]]:
        """Execute all jobs; results are returned in job order."""
        job_list = list(jobs)
        results: List[Optional[Dict[str, float]]] = [None] * len(job_list)
        pending: List[Tuple[int, ReplicationJob]] = []
        for index, job in enumerate(job_list):
            cached = (
                self.cache.get(job.config, job.seed, replication_name(job.replication))
                if self.cache is not None and is_module_level(job.replication)
                else None
            )
            if cached is not None:
                results[index] = cached
            else:
                pending.append((index, job))
        for index, metrics in self._execute(pending):
            results[index] = metrics
            if self.cache is not None:
                job = job_list[index]
                if is_module_level(job.replication):
                    self.cache.put(
                        job.config, job.seed, metrics, replication_name(job.replication)
                    )
        missing = [i for i, r in enumerate(results) if r is None]
        if missing:
            raise RuntimeError(f"executor returned no result for jobs {missing}")
        return results  # type: ignore[return-value]


def _warm_databases(jobs: Sequence[Tuple[int, ReplicationJob]]) -> None:
    """Build each distinct OCB base once before replications start."""
    seen = set()
    for _, job in jobs:
        ocb = job.config.ocb
        if ocb not in seen:
            seen.add(ocb)
            build_database(ocb)


class SerialExecutor(Executor):
    """In-process execution, in submission order."""

    jobs = 1

    def _execute(
        self, indexed_jobs: Sequence[Tuple[int, ReplicationJob]]
    ) -> Iterable[Tuple[int, Dict[str, float]]]:
        _warm_databases(indexed_jobs)
        for index, job in indexed_jobs:
            yield index, job.execute()


# ----------------------------------------------------------------------
# Process-pool execution
# ----------------------------------------------------------------------
def _worker_init(ocb_configs: Tuple) -> None:
    """Pool initializer: warm this worker's OCB database cache once.

    Workers receive the small frozen configs (not the generated graphs)
    and regenerate deterministically — cheaper than pickling a multi-MB
    database per job, and identical by construction.
    """
    for ocb in ocb_configs:
        build_database(ocb)


def _run_job(indexed_job: Tuple[int, ReplicationJob]) -> Tuple[int, Dict[str, float]]:
    index, job = indexed_job
    return index, job.execute()


class ParallelExecutor(Executor):
    """Fans replication jobs across a process pool.

    Jobs are dispatched individually and results reassembled by index,
    so out-of-order completion never reorders the statistics.  The
    replication callable must be picklable (a module-level function);
    use :class:`SerialExecutor` for ad-hoc closures.
    """

    def __init__(
        self, jobs: int = 2, cache: Optional[ReplicationCache] = None
    ) -> None:
        super().__init__(cache=cache)
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def _execute(
        self, indexed_jobs: Sequence[Tuple[int, ReplicationJob]]
    ) -> Iterable[Tuple[int, Dict[str, float]]]:
        if not indexed_jobs:
            return []
        if len(indexed_jobs) == 1 or self.jobs == 1:
            # Not worth a pool; also keeps single-job sweeps debuggable.
            return SerialExecutor._execute(self, indexed_jobs)
        # The pool modules are imported here, not with this module: a
        # serial run (the default) starts no pool and skips their import.
        import multiprocessing

        ocbs = tuple({job.config.ocb for _, job in indexed_jobs})
        # On fork platforms, build the bases in the parent first: every
        # worker then inherits them copy-on-write and the initializer's
        # build_database calls are cache hits.  On spawn/forkserver the
        # parent copy would never reach the workers, so skip it and let
        # the initializer build each base once per worker.
        if multiprocessing.get_start_method() == "fork":
            _warm_databases(indexed_jobs)
        workers = min(self.jobs, len(indexed_jobs))
        # Eager initializer warm-up pays off when every worker will need
        # the base (one config, many replications — the per-point
        # fan-out).  For multi-config sweeps on spawn platforms it would
        # overbuild (each worker generating bases it may never touch),
        # so let build_database's lazy per-process cache fill in instead.
        warm = ocbs if len(ocbs) == 1 else ()
        return self._stream(indexed_jobs, warm, workers)

    @staticmethod
    def _stream(
        indexed_jobs: Sequence[Tuple[int, ReplicationJob]],
        warm: Tuple,
        workers: int,
    ) -> Iterable[Tuple[int, Dict[str, float]]]:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init, initargs=(warm,)
        ) as pool:
            # pool.map yields results in submission order, so streaming
            # them preserves the ordering contract while letting the
            # caller cache each result as it completes.
            yield from pool.map(_run_job, indexed_jobs)


def executor_for(replication: ReplicationFn) -> Executor:
    """Default executor for a replication protocol.

    Honors ``VOODB_JOBS``/``VOODB_CACHE_DIR`` for module-level
    protocols; closures, lambdas and bound methods can't cross a
    process boundary, so they downgrade to serial rather than fail at
    pickle time mid-run.
    """
    if is_module_level(replication):
        return make_executor()
    return make_executor(jobs=1)


def make_executor(
    jobs: Optional[int] = None,
    cache: Optional[ReplicationCache] = None,
    use_default_cache: bool = True,
) -> Executor:
    """Build the executor selected by ``jobs`` / the environment.

    ``jobs=None`` reads ``VOODB_JOBS``; ``cache=None`` reads
    ``VOODB_CACHE_DIR`` (unless ``use_default_cache=False``).
    """
    count = default_jobs() if jobs is None else jobs
    if count < 1:
        raise ValueError(f"jobs must be >= 1, got {count}")
    if cache is None and use_default_cache:
        cache = default_cache()
    if count == 1:
        return SerialExecutor(cache=cache)
    return ParallelExecutor(jobs=count, cache=cache)

"""Parallel sweep execution, on-disk result caching, and fault tolerance.

Every figure in the paper is a grid of independent ``(config, scheme,
benchmarks, n_instructions, seed)`` simulation points — embarrassingly
parallel work that the seed plumbing already makes order-independent: each
point builds its own trace from an explicit seed, so running points on
worker processes produces *bit-identical* results to running them in a
loop.

Three pieces live here:

* :func:`run_points` — execute a list of :class:`RunPoint` s, fanning out
  over a ``ProcessPoolExecutor`` when ``jobs > 1``. Results come back in
  input order regardless of completion order. The pool is a fast path
  only: a worker that dies or hangs does not sink the sweep. Failed or
  timed-out batches are retried (bounded, exponential backoff) in
  *isolated* single-batch processes that can be killed precisely and
  attribute the failure to the exact :class:`RunPoint`; if the pool
  cannot even be created the sweep degrades to serial in-process
  execution. Any simulation error is re-raised as
  :class:`PointExecutionError` naming the point that died.
* :class:`ResultCache` — a content-addressed on-disk cache keyed by a
  hash of the full run description (config included), so re-running a
  figure with warm cache does no simulation at all. Entries that exist
  but fail to load are quarantined to ``<cache>/corrupt/`` (counted in
  ``cache.quarantined``) rather than silently overwritten, preserving
  the evidence. Opt out with ``REPRO_NO_CACHE=1``; relocate with
  ``REPRO_CACHE_DIR``.
* :class:`SweepCheckpoint` — an append-only journal of finished points,
  so an interrupted sweep resumes where it stopped instead of starting
  over.

Select the worker count with ``jobs=N``, ``jobs="auto"`` (one per
*available* CPU — the scheduling affinity mask, not the raw core count),
or the ``REPRO_JOBS`` environment variable. Fault-tolerance knobs:
``REPRO_POINT_TIMEOUT`` (seconds per point: unset = no pool deadline but
a :data:`ISOLATED_FALLBACK_TIMEOUT` safety net on isolated retries;
``0`` = timeouts fully disabled) and ``REPRO_RETRIES`` (attempts after
the first failure, default 2).

The building blocks are public so other schedulers can reuse them: the
sweep service (:mod:`repro.service`) drives :func:`trace_batches`,
:func:`execute_batch_with_retry`, :func:`point_digest`,
:class:`ResultCache` and :class:`SweepCheckpoint` directly rather than
going through :func:`run_points`.
"""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
import random
import sys
import tempfile
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError

from repro.common.errors import ConfigurationError, SimulationError
from repro.sim.simulator import Simulation

#: The sources that decide what a point computes, relative to the
#: ``repro`` package: every ``.py`` file under these packages, plus these
#: modules. Their combined hash (:func:`model_fingerprint`) is part of
#: every :func:`point_digest`, so a cache entry, checkpoint record or
#: service journal entry computed by other model code never matches.
#: Service, benchmark and report-printing code is deliberately absent.
MODEL_SOURCES = (
    "common",
    "mem",
    "cache",
    "core",
    "baselines",
    "cpu",
    "trace",
    "sim/simulator.py",
    "sim/config.py",
)

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_model_fingerprint = None

DEFAULT_CACHE_DIR = ".repro_cache"

#: Attempts after the first failure, for transient (crash/timeout) errors.
DEFAULT_RETRIES = 2

#: First retry delay in seconds; doubles per attempt.
DEFAULT_BACKOFF = 0.25

#: Longest single retry delay, jitter excluded. Without a cap the
#: exponential series (``backoff * 2**(attempt-1)``) grows without bound
#: as soon as a caller raises the retry budget.
MAX_BACKOFF = 30.0

#: Per-point deadline applied to *isolated retry* batches when no timeout
#: was configured at all (``timeout is None``): the retry loop must
#: terminate even against a wedged child. An explicit ``timeout=0``
#: disables deadlines everywhere, safety net included.
ISOLATED_FALLBACK_TIMEOUT = 3600.0

#: Engine escape hatches. These select *how* a point executes — batched
#: miss-chain engine, EID-indexed scan — never what it computes: every
#: mode is bit-identical by construction (the differential suites in
#: tests/sim enforce it). They are read from the process environment
#: when a Simulation builds its caches and runs, so a
#: worker process must see the *submitting* client's values, not
#: whatever environment the executing daemon happened to start with —
#: otherwise pinning ``REPRO_BATCH_MISS=0`` to bisect a suspected engine
#: bug would silently stop meaning anything the moment the sweep runs on
#: the service.
ENGINE_FLAGS = (
    "REPRO_BATCH_MISS",
    "REPRO_BRUTE_SCAN",
)

#: Default remote-worker lease in seconds: a worker that has not
#: heartbeated for this long is presumed dead and its assigned units are
#: requeued. Long enough that a GC pause or a loaded box does not shed
#: work, short enough that a dead host stalls a sweep by seconds, not
#: minutes.
DEFAULT_LEASE = 15.0


def lease_env():
    """The fleet liveness knobs: ``(lease_seconds, heartbeat_interval)``.

    ``REPRO_LEASE`` sets the lease deadline (default
    :data:`DEFAULT_LEASE`); ``REPRO_HEARTBEAT`` the worker's send
    interval (default a third of the lease, so two heartbeats can be
    lost before the lease lapses). Non-positive values fall back to the
    defaults — a zero lease would declare every worker dead on arrival.
    """
    lease = _env_float("REPRO_LEASE")
    if lease is None or lease <= 0:
        lease = DEFAULT_LEASE
    heartbeat = _env_float("REPRO_HEARTBEAT")
    if heartbeat is None or heartbeat <= 0:
        heartbeat = max(lease / 3.0, 0.1)
    return lease, heartbeat


def engine_env(environ=None):
    """The engine-flag bindings present in ``environ`` (default: live env).

    Returns ``{name: value}`` holding only the flags actually set, so the
    dict is a complete description of the caller's engine selection:
    a missing key means "that flag was unset", and :func:`apply_engine_env`
    restores exactly that.
    """
    if environ is None:
        environ = os.environ
    return {name: environ[name] for name in ENGINE_FLAGS if name in environ}


def apply_engine_env(env):
    """Pin a captured engine-flag dict into this process's environment.

    Child-process side of the handoff. ``None`` means "no capture
    travelled with this work" (legacy spool entries, direct callers) and
    leaves the inherited environment alone. A dict — even an empty one —
    is authoritative for *every* flag in :data:`ENGINE_FLAGS`: flags it
    omits are removed, so a daemon started with an engine disabled cannot
    leak that into a client batch that never asked for it.
    """
    if env is None:
        return
    for name in ENGINE_FLAGS:
        if name in env:
            os.environ[name] = env[name]
        else:
            os.environ.pop(name, None)


@dataclasses.dataclass(frozen=True)
class RunPoint:
    """One independent simulation: everything needed to reproduce it."""

    config: object  # SystemConfig
    scheme_name: str
    benchmarks: tuple
    n_instructions: int
    seed: int
    shared_memory: bool = False

    @classmethod
    def single(cls, config, scheme_name, benchmark, n_instructions, seed):
        """Convenience constructor for the single-core case."""
        return cls(config, scheme_name, (benchmark,), n_instructions, seed)

    def describe(self):
        """The point's identity, for failure attribution."""
        return (
            "scheme=%s benchmarks=%s n_instructions=%d seed=%d"
            " shared_memory=%s scale=%s"
            % (
                self.scheme_name,
                ",".join(self.benchmarks),
                self.n_instructions,
                self.seed,
                self.shared_memory,
                getattr(self.config, "scale", "?"),
            )
        )

    def execute(self):
        """Run the simulation described by this point."""
        sim = Simulation(
            self.config,
            self.scheme_name,
            list(self.benchmarks),
            self.n_instructions,
            seed=self.seed,
            shared_memory=self.shared_memory,
        )
        return sim.run()


# ----------------------------------------------------------------------
# failure attribution
# ----------------------------------------------------------------------


class PointExecutionError(SimulationError):
    """A simulation point raised; carries which point and the full repr.

    Deterministic: the same point will raise again, so it is *not*
    retried. ``point_description`` survives pickling across process
    boundaries (workers ship these back over pipes).
    """

    def __init__(self, message, point_description=None):
        super().__init__(message)
        self.point_description = point_description

    def __reduce__(self):
        return (type(self), (self.args[0], self.point_description))


class WorkerCrashError(PointExecutionError):
    """A worker process died (signal/OOM) while running these points.

    Transient from the sweep's perspective: the batch is retried on a
    fresh process.
    """


class PointTimeoutError(PointExecutionError):
    """A batch exceeded its time budget and its process was killed."""


def _attributed(point):
    """Execute ``point``, wrapping any failure with the point's identity."""
    try:
        return point.execute()
    except PointExecutionError:
        raise
    except Exception as exc:
        raise PointExecutionError(
            "point failed [%s]: %s: %s\n  full point: %r"
            % (point.describe(), type(exc).__name__, exc, point),
            point_description=point.describe(),
        ) from exc


def _execute_batch(batch):
    # One task per *trace group*: every point in the batch drives the same
    # reference stream, so the worker's per-process trace memo (see
    # repro.trace.synthetic.make_trace) hits for all but the first point.
    return [_attributed(point) for point in batch]


#: Largest trace-affinity batch shipped to one worker as a single task.
#: Caps load imbalance when a figure has few distinct traces but many
#: schemes/configs per trace.
_BATCH_CAP = 8


def trace_key(point):
    """The trace-identity key of a point: what ``make_trace`` memoizes on.

    Exactly the fields that determine the generated reference stream:
    benchmarks, instruction budget, seed, sharing mode, and the config
    scale (``scale_profile`` shrinks working sets, changing addresses).
    Shared by :func:`trace_batches` and the fleet's same-trace placement
    affinity (:mod:`repro.service.placement`): two units with equal keys
    replay the same stream, so running them on the same worker process
    turns the second generation into a memo hit.
    """
    return (
        point.benchmarks,
        point.n_instructions,
        point.seed,
        point.shared_memory,
        getattr(point.config, "scale", None),
    )


def trace_batches(points, indices):
    """Group pending point indices into same-trace batches (input order).

    Scheduling a group onto one worker turns the figure-sweep pattern —
    six schemes over one stream — into one generation plus five memo hits
    instead of six generations scattered across workers.
    """
    groups = {}
    for index in indices:
        groups.setdefault(trace_key(points[index]), []).append(index)
    batches = []
    for group in groups.values():
        for start in range(0, len(group), _BATCH_CAP):
            batches.append(group[start : start + _BATCH_CAP])
    return batches


def batch_budget(timeout, n_points):
    """The deadline (seconds) for one batch, or None for no deadline.

    ``timeout`` is the per-point setting with three distinct states:

    * ``None`` — nothing configured. Pool futures get no deadline, but
      isolated retry batches fall back to
      :data:`ISOLATED_FALLBACK_TIMEOUT` per point so the retry loop
      cannot wedge forever (this function is only called on that path).
    * ``0`` (or negative) — timeouts *explicitly disabled*; returns None.
      Previously ``timeout or 3600.0`` silently turned the documented
      "disable" value into a one-hour cap.
    * positive — that many seconds per point in the batch.
    """
    if timeout is None:
        return ISOLATED_FALLBACK_TIMEOUT * max(1, n_points)
    if timeout <= 0:
        return None
    return timeout * max(1, n_points)


def retry_delay(attempt, backoff=DEFAULT_BACKOFF, key=None):
    """Backoff before retry ``attempt`` (1-based): capped, jittered.

    The exponential series is clamped to :data:`MAX_BACKOFF`. ``key``
    (any string naming the work, e.g. a batch description) mixes in
    *deterministic* jitter — a 0.5x-1.5x factor seeded from
    ``(key, attempt)`` — so the batches of a crashed pool spread their
    retries out instead of hammering the machine in lockstep, while any
    given batch still waits the exact same amount on every run.
    """
    delay = min(backoff * (2 ** (attempt - 1)), MAX_BACKOFF)
    if key is not None:
        digest = hashlib.sha256(("%s|%d" % (key, attempt)).encode("utf-8"))
        rng = random.Random(int.from_bytes(digest.digest()[:8], "big"))
        delay *= 0.5 + rng.random()
    return delay


def fault_env():
    """The (timeout, retries) pair configured via the environment."""
    timeout = _env_float("REPRO_POINT_TIMEOUT")
    retries = int(os.environ.get("REPRO_RETRIES", DEFAULT_RETRIES))
    return timeout, retries


def resolve_jobs(jobs=None):
    """Normalize a jobs request to a worker count (>= 1).

    ``None`` defers to the ``REPRO_JOBS`` environment variable (default 1);
    ``"auto"`` (or 0) means one worker per *available* CPU: the process
    scheduling affinity when the platform exposes it (cgroup/taskset
    limits make this smaller than ``os.cpu_count()`` on shared CI boxes),
    the raw CPU count otherwise.
    """
    if jobs is None:
        jobs = os.environ.get("REPRO_JOBS", "1")
    if isinstance(jobs, str):
        if jobs.strip().lower() == "auto":
            jobs = 0
        else:
            try:
                jobs = int(jobs)
            except ValueError:
                raise ConfigurationError(
                    "jobs must be a worker count or 'auto', got %r" % jobs
                )
    if jobs <= 0:
        jobs = _available_cpus()
    return max(1, jobs)


def available_cpus():
    """CPUs actually available to this process (affinity-mask aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


_available_cpus = available_cpus


# ----------------------------------------------------------------------
# on-disk result cache
# ----------------------------------------------------------------------


def model_fingerprint(root=None):
    """sha256 hex digest of the model sources (:data:`MODEL_SOURCES`).

    Hashes each file's path relative to ``root`` (default: the installed
    ``repro`` package) and its bytes, in sorted path order. For the
    installed package the value is computed once per process.
    """
    global _model_fingerprint
    if root is None:
        if _model_fingerprint is None:
            _model_fingerprint = model_fingerprint(_PACKAGE_ROOT)
        return _model_fingerprint
    paths = []
    for source in MODEL_SOURCES:
        full = os.path.join(root, source)
        if source.endswith(".py"):
            paths.append(source)
            continue
        for dirpath, _dirnames, filenames in os.walk(full):
            for name in filenames:
                if name.endswith(".py"):
                    paths.append(
                        os.path.relpath(os.path.join(dirpath, name), root)
                    )
    digest = hashlib.sha256()
    for rel in sorted(path.replace(os.sep, "/") for path in paths):
        with open(os.path.join(root, rel), "rb") as handle:
            data = handle.read()
        digest.update(b"%s\0%d\0" % (rel.encode("utf-8"), len(data)))
        digest.update(data)
    return digest.hexdigest()


def point_digest(point, fingerprint=None):
    """Stable hex digest identifying a run point.

    Hashes the *entire* run description — every config field (nested
    dataclasses included), scheme, benchmarks, instruction budget, seed —
    and the model-code fingerprint (default :func:`model_fingerprint`),
    so any change to what would be simulated, or to the code simulating
    it, changes the digest. Shared by :class:`ResultCache`,
    :class:`SweepCheckpoint` and the sweep service's journal.
    """
    if fingerprint is None:
        fingerprint = model_fingerprint()
    payload = {
        "model": fingerprint,
        "scheme": point.scheme_name,
        "benchmarks": list(point.benchmarks),
        "n_instructions": point.n_instructions,
        "seed": point.seed,
        "shared_memory": point.shared_memory,
        "config": dataclasses.asdict(point.config),
    }
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed on-disk cache of :class:`SimulationResult` s.

    Entries that exist but fail to load (truncated file, version skew,
    hand-edited bytes) are treated as misses, and the offending file is
    moved to ``<root>/corrupt/`` — keeping the evidence out of the hot
    path while ``quarantined`` counts how often it happened (surfaced by
    the CLI's ``--verbose``).
    """

    #: Process-wide aggregates across every cache instance, so the CLI can
    #: report totals without plumbing cache objects out of experiments.
    total_hits = 0
    total_misses = 0
    total_quarantined = 0

    def __init__(self, root):
        self.root = root
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    @classmethod
    def summary(cls):
        """One-line process-wide cache statistics (for ``--verbose``)."""
        return (
            "result cache: %d hits, %d misses, %d corrupt entries quarantined"
            % (cls.total_hits, cls.total_misses, cls.total_quarantined)
        )

    @classmethod
    def from_env(cls):
        """The default cache, honoring REPRO_NO_CACHE / REPRO_CACHE_DIR.

        Returns ``None`` (caching disabled) when ``REPRO_NO_CACHE`` is set
        to anything non-empty.
        """
        if os.environ.get("REPRO_NO_CACHE"):
            return None
        return cls(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))

    def key(self, point):
        """Stable hex digest identifying a run point."""
        return point_digest(point)

    def _path(self, key):
        return os.path.join(self.root, key[:2], key + ".pkl")

    def _quarantine(self, path):
        """Move an unloadable entry aside instead of deleting it."""
        corrupt_dir = os.path.join(self.root, "corrupt")
        try:
            os.makedirs(corrupt_dir, exist_ok=True)
            os.replace(path, os.path.join(corrupt_dir, os.path.basename(path)))
        except OSError:
            # Quarantine is best-effort; a store() will overwrite in place.
            return
        self.quarantined += 1
        ResultCache.total_quarantined += 1

    def load(self, point):
        """The cached result for ``point``, or None on any kind of miss."""
        path = self._path(self.key(point))
        try:
            with open(path, "rb") as handle:
                result = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            ResultCache.total_misses += 1
            return None
        except Exception:
            # The entry exists but cannot be loaded: corrupted on disk.
            self._quarantine(path)
            self.misses += 1
            ResultCache.total_misses += 1
            return None
        self.hits += 1
        ResultCache.total_hits += 1
        return result

    def store(self, point, result):
        """Persist a result atomically (write-to-temp then rename)."""
        path = self._path(self.key(point))
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise


class SweepCheckpoint:
    """Append-only journal of finished points for sweep resumption.

    Each record is one pickled ``(digest, result)`` pair; a process
    killed mid-append leaves a truncated tail that loading skips — and
    *truncates away*, so that subsequent :meth:`record` appends land
    where the pickle stream actually ends. (Appending after torn bytes
    would frame every later record as garbage: the next ``_load`` stops
    at the tear and everything written post-resume is unreachable.)
    Unlike :class:`ResultCache` (shared, content-addressed, survives
    forever) a checkpoint belongs to one sweep invocation and is deleted
    when the sweep completes.
    """

    def __init__(self, path):
        self.path = path
        self._results = {}
        self._load()

    def _load(self):
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return
        good_offset = 0
        with handle:
            while True:
                try:
                    digest, result = pickle.load(handle)
                except EOFError:
                    # Clean end *or* a record truncated mid-frame — the
                    # size check below tells them apart.
                    break
                except Exception:
                    # Torn tail record: everything before it is intact,
                    # everything after is unreadable framing.
                    break
                self._results[digest] = result
                good_offset = handle.tell()
        try:
            if os.path.getsize(self.path) > good_offset:
                os.truncate(self.path, good_offset)
        except OSError:
            # Can't repair (permissions, vanished file); appends may be
            # unreachable on the next load, but nothing already journaled
            # is lost.
            pass

    def lookup(self, point):
        """The journaled result for ``point``, or None."""
        return self._results.get(point_digest(point))

    def get(self, digest):
        """The journaled result for an already-computed digest, or None."""
        return self._results.get(digest)

    def __len__(self):
        return len(self._results)

    def record(self, point, result):
        """Append one finished point; durable once the call returns."""
        self.record_digest(point_digest(point), result)

    def record_digest(self, digest, result):
        """Append one finished ``(digest, result)``; durable on return."""
        with open(self.path, "ab") as handle:
            pickle.dump((digest, result), handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.flush()
            os.fsync(handle.fileno())
        self._results[digest] = result

    def done(self):
        """The sweep completed: remove the journal."""
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# isolated (killable, attributable) batch execution
# ----------------------------------------------------------------------


def _isolated_main(conn, batch, env=None):
    """Child entry point: run a batch, ship back the results or the error.

    ``env`` is the submitting client's engine-flag capture (see
    :data:`ENGINE_FLAGS`); it is pinned before the first simulation is
    built so the batch runs under the client's engine selection.
    """
    try:
        apply_engine_env(env)
        results = _execute_batch(batch)
    except PointExecutionError as exc:
        conn.send(("error", exc))
    except BaseException as exc:  # belt and braces: never die silently
        conn.send(("error", PointExecutionError(repr(exc))))
    else:
        conn.send(("ok", results))
    finally:
        conn.close()


#: Live isolated-batch child processes, so an embedding daemon can tear
#: everything down promptly (see :func:`kill_isolated_processes`).
_LIVE_PROCS = set()
_LIVE_LOCK = threading.Lock()

#: Serializes fork() when isolated batches are launched from multiple
#: threads (the sweep service does), shrinking the window in which a
#: child could inherit another thread's held locks.
_SPAWN_LOCK = threading.Lock()


def kill_isolated_processes():
    """Kill every live isolated batch child (daemon shutdown path).

    The waiting callers see the death as :class:`WorkerCrashError`; pair
    with a ``should_retry`` hook that answers False so they surface it
    instead of relaunching.
    """
    with _LIVE_LOCK:
        procs = list(_LIVE_PROCS)
    for proc in procs:
        try:
            proc.kill()
        except Exception:
            pass


def _run_batch_isolated(batch, budget, env=None):
    """Run one batch in its own process; kill it past ``budget`` seconds.

    ``budget`` is the whole-batch deadline (``None`` = wait forever).
    Unlike a pool task, an isolated batch can be killed precisely and its
    death attributed to exactly these points. ``env`` travels to the
    child as an argument (not via the parent's environment) so daemons
    can run concurrent batches under different engine selections.
    """
    parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
    proc = multiprocessing.Process(
        target=_isolated_main, args=(child_conn, batch, env), daemon=True
    )
    with _SPAWN_LOCK:
        proc.start()
    with _LIVE_LOCK:
        _LIVE_PROCS.add(proc)
    child_conn.close()
    described = "; ".join(point.describe() for point in batch)
    try:
        if not parent_conn.poll(budget):
            proc.kill()
            proc.join()
            raise PointTimeoutError(
                "batch exceeded %.1fs and was killed [%s]" % (budget, described),
                point_description=described,
            )
        try:
            status, payload = parent_conn.recv()
        except EOFError:
            proc.join()
            raise WorkerCrashError(
                "worker died (exit code %s) while running [%s]"
                % (proc.exitcode, described),
                point_description=described,
            ) from None
        if status == "error":
            raise payload
        return payload
    finally:
        with _LIVE_LOCK:
            _LIVE_PROCS.discard(proc)
        parent_conn.close()
        if proc.is_alive():
            proc.kill()
        proc.join()


def execute_batch_with_retry(
    batch,
    timeout=None,
    retries=None,
    backoff=DEFAULT_BACKOFF,
    on_retry=None,
    should_retry=None,
    env=None,
):
    """Isolated execution with bounded retry for *transient* failures.

    Deterministic failures (:class:`PointExecutionError` raised by the
    simulation itself) are re-raised immediately — the same point would
    fail the same way again. Crashes and timeouts get ``retries`` more
    attempts (default ``REPRO_RETRIES``), each after a capped, jittered
    :func:`retry_delay`. ``timeout`` follows :func:`batch_budget`
    semantics (None = safety-net deadline, 0 = none at all).

    ``on_retry(attempt, delay, exc)`` is called before each sleep (the
    sweep service logs these as events); ``should_retry()`` returning
    False aborts the loop — used at daemon shutdown so deliberately
    killed children aren't relaunched. ``env`` is an engine-flag capture
    (:func:`engine_env`) pinned inside every child attempt.
    """
    if retries is None:
        retries = int(os.environ.get("REPRO_RETRIES", DEFAULT_RETRIES))
    budget = batch_budget(timeout, len(batch))
    key = "; ".join(point.describe() for point in batch)
    attempt = 0
    while True:
        attempt += 1
        try:
            return _run_batch_isolated(batch, budget, env=env)
        except (WorkerCrashError, PointTimeoutError) as exc:
            if attempt > retries:
                raise
            if should_retry is not None and not should_retry():
                raise
            delay = retry_delay(attempt, backoff, key=key)
            if on_retry is not None:
                on_retry(attempt, delay, exc)
            print(
                "repro: transient failure (attempt %d/%d, retrying in %.2fs):"
                " %s" % (attempt, retries + 1, delay, exc),
                file=sys.stderr,
            )
            time.sleep(delay)


def _kill_pool(pool):
    """Best-effort teardown of a pool whose workers may be stuck."""
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.kill()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _env_float(name):
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError("%s must be a number, got %r" % (name, raw))


# ----------------------------------------------------------------------
# the sweep driver
# ----------------------------------------------------------------------


def resolve_precomputed(points, cache=None, checkpoint=None):
    """Answer points from the checkpoint journal and result cache.

    Returns ``(results, pending)``: a results list (input order, None
    where nothing precomputed was found) and the indices still needing
    execution. Cache hits are recorded into the checkpoint so a later
    resume is journal-local.
    """
    results = [None] * len(points)
    pending = []
    for index, point in enumerate(points):
        if checkpoint is not None:
            journaled = checkpoint.lookup(point)
            if journaled is not None:
                results[index] = journaled
                continue
        if cache is not None:
            cached = cache.load(point)
            if cached is not None:
                results[index] = cached
                if checkpoint is not None:
                    checkpoint.record(point, cached)
                continue
        pending.append(index)
    return results, pending


def run_points(
    points,
    jobs=None,
    cache=None,
    checkpoint=None,
    timeout=None,
    retries=None,
    backoff=DEFAULT_BACKOFF,
):
    """Execute every point; returns results in input order.

    Cached or checkpointed points are answered without simulating. The
    remainder run serially when ``jobs`` resolves to 1 (or only one point
    is pending), otherwise on a process pool — either way each point's
    simulation is seeded identically, so the results are bit-identical
    across modes. Pool tasks are same-trace batches (see
    :func:`trace_batches`) so each worker generates a given reference
    stream once and memo-replays it for the other schemes at that point.

    Fault tolerance (pool mode): a broken pool (worker killed by signal /
    OOM) or a batch exceeding ``timeout`` seconds per point tears the pool
    down and re-runs the unfinished batches in isolated single-batch
    processes — killable on timeout, retried up to ``retries`` times with
    capped, jittered exponential ``backoff``, and any terminal failure
    names the exact points that died. If the pool cannot be created at
    all the sweep degrades to serial in-process execution. ``timeout``
    defaults to ``REPRO_POINT_TIMEOUT`` (unset = no pool deadline,
    ``0`` = timeouts disabled everywhere — see :func:`batch_budget`),
    ``retries`` to ``REPRO_RETRIES`` (default 2).
    """
    points = list(points)
    env_timeout, env_retries = fault_env()
    if timeout is None:
        timeout = env_timeout
    if retries is None:
        retries = env_retries
    results, pending = resolve_precomputed(points, cache, checkpoint)
    if not pending:
        return results

    def finish(index, result):
        results[index] = result
        if cache is not None:
            cache.store(points[index], result)
        if checkpoint is not None:
            checkpoint.record(points[index], result)

    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(pending) == 1:
        for index in pending:
            finish(index, _attributed(points[index]))
        return results
    # Ship same-trace points to one worker as a batch so the worker-local
    # trace memo hits; results land back by index, preserving input order.
    batches = trace_batches(points, pending)
    workers = min(jobs, len(batches))
    try:
        pool = ProcessPoolExecutor(max_workers=workers)
    except OSError as exc:
        # No room for worker processes at all: degrade to serial rather
        # than failing a sweep whose work is perfectly runnable in-process.
        print(
            "repro: cannot create %d-worker pool (%s); running serially"
            % (workers, exc),
            file=sys.stderr,
        )
        for index in pending:
            finish(index, _attributed(points[index]))
        return results

    unfinished = list(batches)
    pool_broken = False
    try:
        futures = [
            (batch, pool.submit(_execute_batch, [points[i] for i in batch]))
            for batch in batches
        ]
        for batch, future in futures:
            if pool_broken:
                break
            # 0 (explicitly disabled) and None (unset) both mean no pool
            # deadline; only a positive timeout arms one.
            budget = timeout * len(batch) if timeout and timeout > 0 else None
            try:
                computed = future.result(timeout=budget)
            except PointExecutionError:
                # Deterministic simulation failure: retrying cannot help.
                raise
            except (BrokenExecutor, FutureTimeoutError, OSError):
                # A worker died or a batch blew its deadline; the pool's
                # other workers (and task attribution) are now suspect.
                pool_broken = True
                break
            for index, result in zip(batch, computed):
                finish(index, result)
            unfinished.remove(batch)
    finally:
        if pool_broken:
            _kill_pool(pool)
        else:
            pool.shutdown(wait=True, cancel_futures=True)

    if unfinished:
        print(
            "repro: pool failed with %d batch(es) unfinished; re-running"
            " them in isolated processes" % len(unfinished),
            file=sys.stderr,
        )
        for batch in unfinished:
            computed = execute_batch_with_retry(
                [points[i] for i in batch],
                timeout=timeout,
                retries=retries,
                backoff=backoff,
            )
            for index, result in zip(batch, computed):
                finish(index, result)
    return results


def run_keyed(pairs, jobs=None, cache=None, **kwargs):
    """Execute ``(key, RunPoint)`` pairs; returns ``{key: result}``."""
    pairs = list(pairs)
    results = run_points(
        [point for _key, point in pairs], jobs=jobs, cache=cache, **kwargs
    )
    return {key: result for (key, _point), result in zip(pairs, results)}

"""Engine-flag propagation: client environment governs worker processes.

``REPRO_BATCH_MISS`` / ``REPRO_BRUTE_SCAN`` select *how* a simulation
executes (all modes are bit-identical), and they are read when the
simulation builds its caches and runs — in the worker process. These
tests pin the contract that a submitting client's
flags travel with its batch: captured by :func:`engine_env`, shipped
through the protocol, spooled for restart recovery, carried on scheduler
units, and finally pinned inside the isolated child by
:func:`apply_engine_env` — with flags the client left unset *scrubbed*
from whatever the daemon inherited.
"""

import asyncio
import dataclasses
import os
import pickle

from repro.service import protocol
from repro.service.scheduler import Scheduler
from repro.service.server import SweepService
from repro.sim.config import SystemConfig
from repro.sim.parallel import (
    ENGINE_FLAGS,
    RunPoint,
    apply_engine_env,
    engine_env,
    execute_batch_with_retry,
)

CONFIG = SystemConfig().scaled(512)
N = CONFIG.epoch_instructions


@dataclasses.dataclass(frozen=True)
class EnvProbePoint(RunPoint):
    """Runs no simulation; reports the engine flags its process sees."""

    def execute(self):
        return {name: os.environ.get(name) for name in ENGINE_FLAGS}


def probe(seed):
    return EnvProbePoint(CONFIG, "picl", ("gcc",), N, seed)


class TestCaptureAndApply:
    def test_engine_env_captures_only_set_engine_flags(self, monkeypatch):
        for name in ENGINE_FLAGS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("REPRO_BATCH_MISS", "0")
        monkeypatch.setenv("REPRO_JOBS", "4")  # not an engine flag
        assert engine_env() == {"REPRO_BATCH_MISS": "0"}

    def test_engine_env_reads_an_explicit_mapping(self):
        captured = engine_env({"REPRO_BATCH_MISS": "1", "PATH": "/bin"})
        assert captured == {"REPRO_BATCH_MISS": "1"}

    def test_apply_none_leaves_environment_alone(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_MISS", "0")
        apply_engine_env(None)
        assert os.environ["REPRO_BATCH_MISS"] == "0"

    def test_apply_dict_is_authoritative_for_every_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_BRUTE_SCAN", "1")
        # Register with monkeypatch before apply_engine_env mutates it,
        # so the flag is restored (not leaked) after this test.
        monkeypatch.setenv("REPRO_BATCH_MISS", "sentinel")
        apply_engine_env({"REPRO_BATCH_MISS": "0"})
        assert os.environ.get("REPRO_BATCH_MISS") == "0"
        # Flags absent from the capture are scrubbed, not inherited.
        assert "REPRO_BRUTE_SCAN" not in os.environ


class TestIsolatedChild:
    def test_child_runs_under_the_submitted_env(self, monkeypatch):
        # The daemon's own environment forces the brute-force scans...
        monkeypatch.setenv("REPRO_BRUTE_SCAN", "1")
        monkeypatch.delenv("REPRO_BATCH_MISS", raising=False)
        # ...but the client pinned only REPRO_BATCH_MISS=0.
        (seen,) = execute_batch_with_retry(
            [probe(1)], env={"REPRO_BATCH_MISS": "0"}
        )
        assert seen["REPRO_BATCH_MISS"] == "0"
        assert seen["REPRO_BRUTE_SCAN"] is None  # daemon setting scrubbed

    def test_no_env_means_the_child_inherits(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_MISS", "0")
        (seen,) = execute_batch_with_retry([probe(2)], env=None)
        assert seen["REPRO_BATCH_MISS"] == "0"


class TestSchedulerUnits:
    def test_submitted_env_rides_on_the_unit(self):
        events = []

        async def scenario():
            scheduler = Scheduler(jobs=1, runner=lambda points: points)
            # Submit before start(): units queue without dispatching, so
            # the queue is inspectable.
            scheduler.submit(
                "client-a", [probe(3)], env={"REPRO_BATCH_MISS": "0"}
            )
            scheduler.submit("client-b", [probe(4)])
            for queue in scheduler._queues.values():
                for unit in queue:
                    events.append((unit.client, unit.env))
            scheduler.start()
            await scheduler.close()

        asyncio.run(scenario())
        assert ("client-a", {"REPRO_BATCH_MISS": "0"}) in events
        assert ("client-b", None) in events


class TestProtocolAndSpool:
    def test_submit_points_carries_env(self):
        message = protocol.submit_points(
            "b1", [probe(5)], env={"REPRO_BATCH_MISS": "1"}
        )
        assert message["env"] == {"REPRO_BATCH_MISS": "1"}
        decoded = protocol.loads(protocol.dumps(message))
        assert decoded["env"] == {"REPRO_BATCH_MISS": "1"}

    def test_spool_recovery_reads_both_formats(self, tmp_path):
        seen = []

        async def scenario():
            service = SweepService(
                spool_dir=str(tmp_path), cache=None, runner=lambda pts: pts
            )

            def record_submit(client, points, batch_id=None, env=None):
                seen.append((batch_id, env))
                return []

            service.scheduler.submit = record_submit
            # Old format: a bare pickled point list (pre-env daemons).
            with open(service._spool_path("old"), "wb") as handle:
                pickle.dump([probe(6)], handle)
            # New format: dict with the engine-flag capture.
            service._spool("new", [probe(7)], env={"REPRO_BATCH_MISS": "0"})
            service._stopping = asyncio.Event()
            service.scheduler.start()
            service._recover_spool()
            await service.scheduler.close()
            for task in list(service._background):
                await task

        asyncio.run(scenario())
        assert ("old", None) in seen
        assert ("new", {"REPRO_BATCH_MISS": "0"}) in seen


class _RecordingWriter:
    """Stands in for the client's stream writer; keeps every message."""

    def __init__(self):
        self.messages = []

    def write(self, data):
        self.messages.append(protocol.loads(data))

    async def drain(self):
        pass


class TestServerSanitisation:
    def test_submit_drops_unknown_env_keys(self, tmp_path, monkeypatch):
        # A submit is not a general env-injection channel: keys outside
        # ENGINE_FLAGS — an arbitrary loader variable, or a retired
        # engine switch an older client or spool still sets — are
        # dropped before the batch is queued, and the batch still
        # completes.
        monkeypatch.delenv("REPRO_BATCH_MISS", raising=False)
        queued = []

        async def scenario():
            service = SweepService(spool_dir=str(tmp_path), cache=None, jobs=1)
            submit = service.scheduler.submit

            def record_submit(client, points, batch_id=None, env=None):
                queued.append(env)
                return submit(client, points, batch_id=batch_id, env=env)

            service.scheduler.submit = record_submit
            service.scheduler.start()
            writer = _RecordingWriter()
            message = protocol.submit_points(
                "b-env",
                [probe(8), probe(9)],
                env={
                    "REPRO_BATCH_MISS": "0",
                    "REPRO_VECTOR": "0",
                    "REPRO_VECTOR_MC": "0",
                    "LD_PRELOAD": "x",
                },
            )
            await service._handle_submit(message, writer, "client-a")
            await service.scheduler.close()
            for task in list(service._background):
                await task
            return writer.messages

        messages = asyncio.run(scenario())
        assert queued == [{"REPRO_BATCH_MISS": "0"}]
        points = [m for m in messages if m["event"] == "point"]
        assert len(points) == 2
        for point in points:
            seen = protocol.decode_payload(point["result"])
            assert seen == {
                "REPRO_BATCH_MISS": "0",
                "REPRO_BRUTE_SCAN": None,
            }
        assert messages[-1]["event"] == "done"
        assert messages[-1]["failures"] == 0

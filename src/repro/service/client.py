"""Synchronous JSON-line client for the sweep service.

``repro submit``/``repro status`` (and the tests) talk to the daemon
through this. It is deliberately plain blocking-socket code: a client
submits, then sits in a read loop collecting streamed ``point`` events
until ``done`` — reassembling completion-ordered arrivals back into
input order by each event's ``index``.

Reads carry a deadline (``REPRO_CLIENT_TIMEOUT``, default 300 s, ``0``
disables) instead of blocking forever on a daemon that hung after
``accepted``. When a streaming read times out the client does not give
up: it reconnects and *re-submits the same batch id and points*, which
is safe and cheap by construction — the scheduler answers every
already-finished point from its journal and joins every in-flight one,
so the resumed stream replays instantly up to where it died and no
point is ever executed twice.
"""

import os
import socket
import time

from repro.service import protocol
from repro.service.server import default_socket_path
from repro.sim.parallel import PointExecutionError, engine_env

#: Default streaming-read deadline in seconds (REPRO_CLIENT_TIMEOUT).
DEFAULT_CLIENT_TIMEOUT = 300.0

#: Reconnect-and-resume attempts per stream before giving up.
RESUME_ATTEMPTS = 3


def client_timeout():
    """The configured read deadline, or None when disabled."""
    raw = os.environ.get("REPRO_CLIENT_TIMEOUT")
    if raw is None or not raw.strip():
        return DEFAULT_CLIENT_TIMEOUT
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_CLIENT_TIMEOUT
    return value if value > 0 else None


class ServiceUnavailableError(ConnectionError):
    """No daemon is answering at the requested endpoint."""


class ServiceClient:
    """One connection to a running daemon.

    ``tcp`` is a ``(host, port)`` pair; otherwise the unix socket at
    ``socket_path`` (default: the default spool's socket) is used.
    ``read_timeout`` overrides ``REPRO_CLIENT_TIMEOUT`` (``0`` disables
    the deadline). Usable as a context manager.
    """

    def __init__(
        self, socket_path=None, tcp=None, connect_timeout=30.0, read_timeout=None
    ):
        self._socket_path = socket_path
        self._tcp = tcp
        self._connect_timeout = connect_timeout
        if read_timeout is None:
            self.read_timeout = client_timeout()
        else:
            self.read_timeout = read_timeout if read_timeout > 0 else None
        self._sock = None
        self._file = None
        self._connect()
        self.last_summary = None
        self.last_sources = None
        self.resumes = 0

    def _connect(self):
        if self._tcp:
            host, port = self._tcp
            self._sock = socket.create_connection(
                (host, int(port)), timeout=self._connect_timeout
            )
        else:
            path = self._socket_path or default_socket_path()
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(self._connect_timeout)
            self._sock.connect(path)
        # Streaming reads wait as long as the simulation does — but not
        # forever: the deadline turns a wedged daemon into an exception
        # (and, mid-stream, into a reconnect-and-resume).
        self._sock.settimeout(self.read_timeout)
        self._file = self._sock.makefile("rwb")

    def _reconnect(self):
        """Abandon the connection (buffered state and all) and redial."""
        self.close()
        self._connect()

    def close(self):
        try:
            if self._file is not None:
                self._file.close()
        except OSError:
            pass
        finally:
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _send(self, message):
        self._file.write(protocol.dumps(message))
        self._file.flush()

    def _recv(self):
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        message = protocol.loads(line)
        if message.get("event") == "error":
            raise PointExecutionError("server error: %s" % message.get("error"))
        return message

    # ------------------------------------------------------------------
    # simple ops
    # ------------------------------------------------------------------

    def ping(self):
        """True if the daemon answers; raises on a dead endpoint."""
        self._send({"op": "ping"})
        return self._recv().get("event") == "pong"

    def status(self):
        """The daemon's status snapshot (queues, events, cache, spool)."""
        self._send({"op": "status"})
        return self._recv()["data"]

    def shutdown(self):
        """Ask the daemon to exit cleanly."""
        self._send({"op": "shutdown"})
        try:
            self._recv()
        except ConnectionError:
            pass

    # ------------------------------------------------------------------
    # batches
    # ------------------------------------------------------------------

    def submit_points(self, points, batch_id=None, on_event=None, env=None):
        """Run ``points`` on the farm; returns results in input order.

        Streams partial results (``on_event`` sees every raw ``point`` /
        ``point_error`` message as it arrives). Raises
        :class:`PointExecutionError` if any point terminally failed,
        after the stream completes.

        ``env`` overrides the engine-flag capture shipped with the batch;
        by default the *client's* live environment is captured
        (:func:`repro.sim.parallel.engine_env`), so ``REPRO_BATCH_MISS`` /
        ``REPRO_BRUTE_SCAN`` pinned at the client
        govern the daemon's workers for exactly this batch.
        """
        points = list(points)
        batch_id = batch_id or os.urandom(8).hex()
        if env is None:
            env = engine_env()
        message = protocol.submit_points(batch_id, points, env=env)
        self._send(message)
        return self._collect(len(points), on_event, resubmit=message)

    def submit_figure(
        self,
        figure,
        preset=None,
        benchmarks=None,
        epochs=None,
        on_event=None,
        env=None,
    ):
        """Have the *server* decompose a registered figure and run it.

        Returns ``{key_tuple: result}`` keyed exactly as the figure's
        ``points()`` builder keys its grid. ``env`` follows
        :meth:`submit_points` semantics (default: capture the client's
        engine flags).
        """
        if env is None:
            env = engine_env()
        message = protocol.submit_figure(
            os.urandom(8).hex(),
            figure,
            preset=preset,
            benchmarks=benchmarks,
            epochs=epochs,
            env=env,
        )
        self._send(message)
        accepted = self._recv()
        keys = [tuple(key) for key in accepted["keys"]]
        results = self._stream(accepted, on_event, resubmit=message)
        return dict(zip(keys, results))

    def _collect(self, n_points, on_event, resubmit=None):
        try:
            accepted = self._recv()
        except socket.timeout:
            raise PointExecutionError(
                "no accept from server within %.0fs" % (self.read_timeout or 0)
            )
        if accepted.get("event") != "accepted":
            raise PointExecutionError(
                "expected accepted, got %r" % (accepted,)
            )
        if accepted["n_points"] != n_points:
            raise PointExecutionError(
                "server accepted %d points, sent %d"
                % (accepted["n_points"], n_points)
            )
        return self._stream(accepted, on_event, resubmit=resubmit)

    def _resume(self, resubmit):
        """Redial and replay a submit whose stream went quiet.

        Returns the fresh ``accepted`` message. Idempotent server-side:
        same batch id, same points — journaled points answer instantly,
        in-flight points are joined, nothing re-executes.
        """
        self.resumes += 1
        self._reconnect()
        self._send(resubmit)
        accepted = self._recv()
        if accepted.get("event") != "accepted":
            raise PointExecutionError(
                "resume expected accepted, got %r" % (accepted,)
            )
        return accepted

    def _stream(self, accepted, on_event, resubmit=None):
        results = [None] * accepted["n_points"]
        have = [False] * accepted["n_points"]
        errors = {}
        attempts = 0
        while True:
            try:
                message = self._recv()
            except (socket.timeout, ConnectionError):
                if resubmit is None or attempts >= RESUME_ATTEMPTS:
                    raise PointExecutionError(
                        "stream stalled past %s deadline(s) with %d/%d "
                        "point(s) delivered"
                        % (
                            "%.0fs" % self.read_timeout
                            if self.read_timeout
                            else "no",
                            sum(have),
                            len(have),
                        )
                    )
                attempts += 1
                accepted = self._resume(resubmit)
                continue
            event = message.get("event")
            # Any delivery is progress: the stall budget caps
            # *consecutive* dead reads, not total resumes over a long
            # healthy stream.
            if event in ("point", "point_error", "done"):
                attempts = 0
            if event == "point":
                index = message["index"]
                results[index] = protocol.decode_payload(message["result"])
                have[index] = True
                errors.pop(index, None)
                if on_event is not None:
                    on_event(message)
            elif event == "point_error":
                errors[message["index"]] = message["error"]
                if on_event is not None:
                    on_event(message)
            elif event == "done":
                self.last_summary = message
                self.last_sources = message.get("sources")
                break
            # Anything else (future protocol additions) is skipped.
        if errors:
            raise PointExecutionError(
                "%d point(s) failed: %s"
                % (
                    len(errors),
                    "; ".join(
                        "index %d: %s" % (index, error)
                        for index, error in sorted(errors.items())
                    ),
                )
            )
        return results


def wait_until_ready(socket_path=None, tcp=None, timeout=30.0, interval=0.1):
    """Block until a daemon answers a ping at the endpoint (or raise).

    The daemon takes a moment to import and bind after being spawned;
    tests and the CI smoke use this instead of sleeping.
    """
    deadline = time.monotonic() + timeout
    last_error = None
    while time.monotonic() < deadline:
        try:
            with ServiceClient(
                socket_path=socket_path, tcp=tcp, connect_timeout=interval + 1
            ) as client:
                if client.ping():
                    return True
        except (OSError, ConnectionError) as exc:
            last_error = exc
        time.sleep(interval)
    raise ServiceUnavailableError(
        "no sweep service at %s after %.1fs (%s)"
        % (tcp or socket_path or default_socket_path(), timeout, last_error)
    )

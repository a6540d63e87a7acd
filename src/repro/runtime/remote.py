"""Multi-host slave pools over authenticated, length-prefixed sockets.

The paper ran its master/slave GA on a PVM cluster.  This module is the
socket-era equivalent: worker *hosts* run :func:`serve` (CLI:
``repro-ga worker --bind HOST:PORT``), accepting one connection per slave and
evaluating chunks in a dedicated process per connection;
:class:`RemoteSlavePool` is a :class:`~repro.parallel.farm.ChunkedWorkerFarm`
whose transport is those connections instead of local child processes — the
whole ticket engine (affinity routing, stealing, PR-6 recovery replay)
is inherited unchanged, only the five transport hooks differ.

Wire protocol (``multiprocessing.connection`` — length-prefixed pickles over
TCP, HMAC-authenticated with a shared key):

* master → slave, once: ``(worker_id, evaluator_factory, worker_cache_size)``
  — the factory carries the picklable :class:`~repro.runtime.spec.EvaluatorSpec`
  plus a dataset handle; the ``remote`` backend ships the 2-bit packed panel
  (:class:`~repro.runtime.spec.PackedDatasetHandle`, ~4× smaller than bytes)
  exactly once per connection, after which only haplotype chunks travel.
* master → slave, per chunk: ``(task_id, [haplotype, ...])``; ``None`` stops.
* slave → master, per chunk: ``(task_id, worker_id, values, ChunkStats,
  error)`` — byte-for-byte the local farm's result message.

A dead connection is treated exactly like a dead local slave: the recovery
engine replays its chunks onto survivors (bit-identical by fitness purity)
and raises :class:`~repro.parallel.farm.FarmDeadError` when none remain.

Liveness is active, not just reactive: every slave process runs a heartbeat
thread beating over its connection (``("heartbeat", worker_id, ts)`` —
shape-distinct from the 5-tuple result message, consumed by the farm's
control-message hook), so a host that *silently* stops answering — black-holed
route, frozen VM, partitioned switch — is reaped after ``heartbeat_timeout``
seconds exactly like a torn connection, and its in-flight chunks replay onto
survivors.  Reconnects (the respawn path) go through
:func:`connect_with_timeout` so a black-holed host cannot wedge the master in
an unbounded handshake, and failed reconnects back off exponentially per host
— a flapping host is re-admitted when it answers again, not hammered.

The shared key defaults to a well-known development value; set
``REPRO_REMOTE_AUTHKEY`` on every host for anything beyond localhost.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from multiprocessing.connection import Client, Listener
from typing import Sequence

from ..parallel.base import default_mp_context
from ..parallel.farm import (
    ChunkedWorkerFarm,
    EvaluatorFactory,
    FarmRecoveryPolicy,
    _build_local_evaluator,
    _evaluate_chunk,
)
from ..parallel.pvm import EvaluationCostModel

__all__ = [
    "RemoteSlavePool",
    "LocalWorkerHost",
    "serve",
    "parse_host",
    "parse_hosts",
    "default_authkey",
    "connect_with_timeout",
]

_DEFAULT_AUTHKEY = b"repro-ga-dist"

#: first element of a slave→master heartbeat message (shape-distinct from the
#: 5-tuple chunk result, so the farm's control hook can intercept it)
_HEARTBEAT = "heartbeat"

#: how often a slave process beats while serving a master
DEFAULT_HEARTBEAT_INTERVAL = 1.0

#: master-side silence budget before a host is reaped as dead
DEFAULT_HEARTBEAT_TIMEOUT = 30.0


def connect_with_timeout(
    address: tuple[str, int], *, authkey: bytes, timeout: float | None
):
    """``Client(address, authkey=...)`` with a connect/handshake deadline.

    ``multiprocessing.connection.Client`` has no timeout: against a
    black-holed host (SYN accepted, HMAC challenge never answered) it blocks
    forever, which would wedge the master's reconnect path.  The attempt runs
    on a daemon thread and is abandoned past ``timeout`` — the thread (and
    its half-open socket) dies with the process, bounded by the recovery
    policy's restart budget.  ``timeout=None`` is a plain blocking connect.
    """
    address = tuple(address)
    if timeout is None:
        return Client(address, authkey=authkey)
    box: dict = {}
    done = threading.Event()

    def attempt() -> None:
        try:
            box["conn"] = Client(address, authkey=authkey)
        except BaseException as exc:
            box["error"] = exc
        finally:
            done.set()

    thread = threading.Thread(target=attempt, daemon=True)
    thread.start()
    if not done.wait(timeout):
        raise TimeoutError(
            f"connecting to {address[0]}:{address[1]} did not complete "
            f"within {timeout:.1f}s"
        )
    if "error" in box:
        raise box["error"]
    return box["conn"]


def default_authkey() -> bytes:
    """The wire-authentication key: ``REPRO_REMOTE_AUTHKEY`` or a dev default."""
    value = os.environ.get("REPRO_REMOTE_AUTHKEY")
    if value:
        return value.encode("utf-8")
    return _DEFAULT_AUTHKEY


def parse_host(host) -> tuple[str, int]:
    """``"host:port"`` (or a ``(host, port)`` pair) → ``(host, port)``."""
    if isinstance(host, str):
        name, sep, port = host.rpartition(":")
        if not sep or not name:
            raise ValueError(
                f"remote host must be 'host:port', got {host!r}"
            )
        try:
            return (name, int(port))
        except ValueError:
            raise ValueError(
                f"remote host must be 'host:port' with an integer port, got {host!r}"
            ) from None
    name, port = host
    return (str(name), int(port))


def parse_hosts(hosts: Sequence) -> tuple[tuple[str, int], ...]:
    """Parse a sequence of host specs; order defines worker-slot numbering."""
    parsed = tuple(parse_host(host) for host in hosts)
    if not parsed:
        raise ValueError("at least one remote host is required")
    return parsed


# --------------------------------------------------------------------- #
# worker-host side
# --------------------------------------------------------------------- #
def _install_stop_handlers(stop: threading.Event, on_stop=None) -> None:
    """SIGTERM/SIGINT → set ``stop`` so serving loops drain and exit cleanly.

    ``on_stop`` additionally runs inside the handler — e.g. closing a
    listener so a blocked ``accept()`` (retried after handlers per PEP 475)
    actually wakes up.  Signal handlers can only be installed from a
    process's main thread; elsewhere (e.g. a slave loop driven from a thread
    in tests) this is a silent no-op and the loop simply relies on
    connection teardown.
    """
    if threading.current_thread() is not threading.main_thread():
        return

    def handler(signum, frame):  # pragma: no cover - signal delivery
        stop.set()
        if on_stop is not None:
            try:
                on_stop()
            except OSError:
                pass

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, handler)
        except (ValueError, OSError):  # pragma: no cover - exotic runtime
            return


def _remote_worker_loop(
    conn, heartbeat_interval: float | None = DEFAULT_HEARTBEAT_INTERVAL
) -> None:
    """Serve one master connection: setup once, then evaluate chunks forever.

    SIGTERM/SIGINT request a graceful stop: the loop polls the connection
    instead of blocking in ``recv``, so a terminated host finishes (and
    replies to) the chunk it is evaluating, then closes the connection — the
    master sees an orderly disconnect instead of a mid-chunk tear it must
    discover via replay.

    With ``heartbeat_interval`` set, a daemon thread beats over the
    connection so the master can tell "evaluating a heavy chunk" from "gone"
    — the beat keeps flowing *during* evaluation, which is exactly when a
    reply-only protocol is silent.  Replies and beats share a send lock so
    their pickles never interleave on the wire.
    """
    stop = threading.Event()
    _install_stop_handlers(stop)
    try:
        setup = conn.recv()
    except (EOFError, OSError):
        return
    worker_id, factory, worker_cache_size = setup
    local = _build_local_evaluator(worker_id, factory, worker_cache_size, conn)
    if local is None:
        return  # start-up failure already reported over the connection
    send_lock = threading.Lock()
    beats: threading.Thread | None = None
    if heartbeat_interval is not None:

        def _beat() -> None:
            while not stop.wait(heartbeat_interval):
                try:
                    with send_lock:
                        conn.send((_HEARTBEAT, worker_id, time.monotonic()))
                except (BrokenPipeError, ConnectionError, OSError, ValueError):
                    return

        beats = threading.Thread(
            target=_beat, daemon=True, name=f"remote-worker-{worker_id}-beat"
        )
        beats.start()
    try:
        while not stop.is_set():
            try:
                if not conn.poll(0.2):
                    continue
                message = conn.recv()
            except (EOFError, OSError):
                return  # master went away; nothing left to serve
            if message is None:
                return
            task_id, chunk = message
            reply = _evaluate_chunk(local, task_id, worker_id, chunk)
            try:
                with send_lock:
                    conn.send(reply)
            except (BrokenPipeError, OSError):
                return
    finally:
        stop.set()
        if beats is not None:
            beats.join(timeout=2.0)
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


def serve(
    bind: tuple[str, int] | str,
    *,
    authkey: bytes | None = None,
    max_connections: int | None = None,
    start_method: str | None = None,
    heartbeat_interval: float | None = DEFAULT_HEARTBEAT_INTERVAL,
    _ready=None,
) -> None:
    """Run a worker host: accept master connections, one slave process each.

    ``bind`` is ``(host, port)`` or ``"host:port"`` (port ``0`` binds an
    ephemeral port; the resolved address is reported over ``_ready`` when
    given).  Each accepted connection gets its own daemon process running
    :func:`_remote_worker_loop`, so one master's heavy chunk cannot block
    another master's slave.  ``max_connections`` bounds how many connections
    are served before returning (``None`` serves forever).

    SIGTERM/SIGINT shut the host down gracefully: the accept loop stops, and
    every slave process is SIGTERMed — its own handler lets the in-flight
    chunk finish and its reply be delivered before the connection closes —
    then joined (with an escalation to ``kill`` for stragglers).
    """
    if isinstance(bind, str):
        bind = parse_host(bind)
    context = default_mp_context(start_method)
    stop = threading.Event()
    listener = Listener(bind, authkey=authkey or default_authkey())
    # the handler must close the listener as well as set the flag: a blocked
    # accept() is retried after a signal handler returns (PEP 475), so the
    # close is what actually wakes the loop
    _install_stop_handlers(stop, on_stop=listener.close)
    workers: list = []
    try:
        if _ready is not None:
            _ready.send(listener.address)
            _ready.close()
        served = 0
        while not stop.is_set() and (
            max_connections is None or served < max_connections
        ):
            try:
                conn = listener.accept()
            except OSError:
                # listener closed under us, or accept interrupted by a
                # shutdown signal (EINTR surfaces here on some platforms)
                if stop.is_set():
                    break
                return
            except Exception:
                # failed authentication or a scanner poking the port: keep
                # serving legitimate masters
                continue
            worker = context.Process(
                target=_remote_worker_loop,
                args=(conn, heartbeat_interval),
                daemon=True,
            )
            worker.start()
            conn.close()  # the slave process owns it now
            workers = [w for w in workers if w.is_alive()]
            workers.append(worker)
            served += 1
    finally:
        try:
            listener.close()  # may already be closed by the signal handler
        except OSError:  # pragma: no cover - platform dependent
            pass
        # drain: SIGTERM each slave (its handler finishes the in-flight
        # chunk and replies first), join, then kill anything still stuck
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
        for worker in workers:
            worker.join(timeout=10.0)
            if worker.is_alive():  # pragma: no cover - wedged evaluation
                worker.kill()
                worker.join(timeout=1.0)


class LocalWorkerHost:
    """A worker host on an ephemeral localhost port (tests and benchmarks).

    Starts :func:`serve` in a child process bound to ``127.0.0.1:0`` and
    exposes the resolved ``host:port``::

        with LocalWorkerHost() as host:
            pool = RemoteSlavePool(factory, hosts=[host.host])
    """

    def __init__(
        self,
        *,
        authkey: bytes | None = None,
        max_connections: int | None = None,
        start_method: str | None = None,
        heartbeat_interval: float | None = DEFAULT_HEARTBEAT_INTERVAL,
        bind: tuple[str, int] | None = None,
    ) -> None:
        context = default_mp_context(start_method)
        ready_recv, ready_send = context.Pipe(duplex=False)
        # not a daemon: the server forks one slave process per connection,
        # and daemonic processes may not have children
        self._process = context.Process(
            target=serve,
            args=(bind or ("127.0.0.1", 0),),
            kwargs={
                "authkey": authkey,
                "max_connections": max_connections,
                "start_method": start_method,
                "heartbeat_interval": heartbeat_interval,
                "_ready": ready_send,
            },
        )
        self._process.start()
        ready_send.close()
        self.address: tuple[str, int] = ready_recv.recv()
        ready_recv.close()

    @property
    def host(self) -> str:
        """The ``"host:port"`` spec to hand to ``--hosts`` / ``hosts=``."""
        return f"{self.address[0]}:{self.address[1]}"

    def close(self) -> None:
        """Stop accepting connections; idempotent.

        Slaves already serving a master keep running until that master sends
        the stop sentinel or closes the connection.
        """
        if self._process.is_alive():
            self._process.terminate()
        self._process.join(timeout=5.0)

    def __enter__(self) -> "LocalWorkerHost":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# --------------------------------------------------------------------- #
# master side
# --------------------------------------------------------------------- #
class RemoteSlavePool(ChunkedWorkerFarm):
    """The chunked ticket engine over socket connections to worker hosts.

    One slave slot per entry of ``hosts`` (a host serving N slaves is simply
    listed N times).  All of :class:`ChunkedWorkerFarm`'s semantics carry
    over — affinity routing, master-mediated stealing, recovery replay,
    counter parity — with connections in place of child processes:

    * a torn connection is a dead slave (replay onto survivors, optional
      reconnect as the respawn, :class:`FarmDeadError` when none remain);
    * ``recovery.chunk_timeout`` hangs are healed by dropping the connection;
    * a host silent past ``heartbeat_timeout`` (its slave beats every
      :data:`DEFAULT_HEARTBEAT_INTERVAL` seconds, evaluating or idle) is
      reaped exactly like a torn connection — the black-holed-route failure
      mode a reply-only protocol cannot see;
    * reconnect attempts are bounded by ``connect_timeout`` and back off
      exponentially per host (``reconnect_backoff`` →
      ``max_reconnect_backoff``); a host that answers again is re-admitted
      on the next health pass (within the recovery restart budget).
    """

    def __init__(
        self,
        factory: EvaluatorFactory,
        hosts: Sequence,
        *,
        authkey: bytes | None = None,
        chunk_size: int | None = None,
        worker_cache_size: int | None = 4096,
        steal: bool = False,
        max_inflight: int = 2,
        cost_model: EvaluationCostModel | None = None,
        recovery: FarmRecoveryPolicy | None = None,
        heartbeat_timeout: float | None = DEFAULT_HEARTBEAT_TIMEOUT,
        connect_timeout: float | None = 10.0,
        reconnect_backoff: float = 0.5,
        max_reconnect_backoff: float = 30.0,
    ) -> None:
        addresses = parse_hosts(hosts)
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be positive, got {heartbeat_timeout!r}"
            )
        # transport state must exist before super().__init__ runs the
        # _spawn_worker loop
        self._addresses = addresses
        self._authkey = authkey or default_authkey()
        self._broken = [False] * len(addresses)
        self._heartbeat_timeout = (
            None if heartbeat_timeout is None else float(heartbeat_timeout)
        )
        self._connect_timeout = (
            None if connect_timeout is None else float(connect_timeout)
        )
        self._reconnect_backoff_base = float(reconnect_backoff)
        self._max_reconnect_backoff = float(max_reconnect_backoff)
        self._last_heartbeat = [time.monotonic()] * len(addresses)
        self._reconnect_backoff = [self._reconnect_backoff_base] * len(addresses)
        self._reconnect_at = [0.0] * len(addresses)
        super().__init__(
            factory,
            len(addresses),
            chunk_size=chunk_size,
            worker_cache_size=worker_cache_size,
            steal=steal,
            max_inflight=max_inflight,
            cost_model=cost_model,
            recovery=recovery,
        )

    # ------------------------------------------------------------------ #
    # transport hooks
    # ------------------------------------------------------------------ #
    def _spawn_worker(self, worker_id: int) -> None:
        """Connect slot ``worker_id`` to its host and ship the setup message."""
        address = self._addresses[worker_id]
        try:
            conn = connect_with_timeout(
                address, authkey=self._authkey, timeout=self._connect_timeout
            )
            conn.send((worker_id, self._factory, self._worker_cache_size))
        except Exception as exc:
            raise ConnectionError(
                f"could not connect worker {worker_id} to remote host "
                f"{address[0]}:{address[1]}: {exc}"
            ) from exc
        self._close_conn(self._result_conns[worker_id])
        self._result_conns[worker_id] = conn
        self._broken[worker_id] = False
        self._inflight[worker_id] = 0
        self._alive[worker_id] = True
        self._last_heartbeat[worker_id] = time.monotonic()
        self._reconnect_backoff[worker_id] = self._reconnect_backoff_base
        self._reconnect_at[worker_id] = 0.0

    def _send_message(self, worker: int, message) -> None:
        conn = self._result_conns[worker]
        try:
            conn.send(message)
        except Exception:
            # the health pass reaps the broken slave and replays its chunks
            self._broken[worker] = True

    def _on_result_channel_error(self, conn) -> None:
        for worker, candidate in enumerate(self._result_conns):
            if candidate is conn:
                self._broken[worker] = True

    def _handle_control_message(self, message) -> bool:
        """Consume a slave heartbeat arriving on the result channel."""
        if (
            isinstance(message, tuple)
            and len(message) == 3
            and message[0] == _HEARTBEAT
        ):
            worker = int(message[1])
            if 0 <= worker < self._n_workers:
                with self._lock:
                    self._last_heartbeat[worker] = time.monotonic()
            return True
        return False

    def _heartbeat_overdue(self, worker: int) -> bool:
        timeout = self._heartbeat_timeout
        if timeout is None:
            return False
        if time.monotonic() - self._last_heartbeat[worker] <= timeout:
            return False
        # beats accumulate unread while no collect loop is draining (between
        # batches, or on an external health probe): readable bytes mean the
        # host is talking, only an *empty* channel past the budget is silence
        conn = self._result_conns[worker]
        if conn is not None and not conn.closed:
            try:
                if conn.poll(0):
                    self._last_heartbeat[worker] = time.monotonic()
                    return False
            except (OSError, ValueError):
                pass
        return True

    def _worker_is_alive(self, worker: int) -> bool:
        return not self._broken[worker] and not self._heartbeat_overdue(worker)

    def _worker_lost_reason(self, worker: int) -> str:
        host, port = self._addresses[worker]
        if not self._broken[worker] and self._heartbeat_overdue(worker):
            silent = time.monotonic() - self._last_heartbeat[worker]
            return (
                f"remote worker {worker} at {host}:{port} went silent "
                f"(no heartbeat for {silent:.1f}s)"
            )
        return f"remote worker {worker} at {host}:{port} disconnected"

    def _kill_worker(self, worker: int) -> None:
        self._broken[worker] = True
        self._close_conn(self._result_conns[worker])
        self._result_conns[worker] = None

    def _respawn_worker(self, worker: int) -> bool:
        """Respawn = reconnect to the same host (it may have restarted).

        Failed reconnects back off exponentially per host: while the backoff
        window is open further attempts are refused immediately, so a dead
        host costs one bounded connect per window instead of a hammering
        loop.  A successful reconnect resets the backoff.
        """
        now = time.monotonic()
        if now < self._reconnect_at[worker]:
            return False
        try:
            self._spawn_worker(worker)
        except ConnectionError:
            backoff = self._reconnect_backoff[worker]
            self._reconnect_at[worker] = now + backoff
            self._reconnect_backoff[worker] = min(
                backoff * 2.0, self._max_reconnect_backoff
            )
            return False
        return True

    def _check_farm_health(self) -> None:
        """The base health pass, plus re-admission of recovered hosts."""
        super()._check_farm_health()
        self._readmit_hosts()

    def _readmit_hosts(self) -> None:
        """Reconnect dead host slots whose backoff window has elapsed.

        Runs under the engine lock (health passes always do).  Re-admission
        spends the same restart budget as any respawn, so a flapping host
        cannot consume unbounded reconnects.
        """
        policy = self._recovery
        if (
            policy is None
            or not policy.respawn
            or self._closed
            or self._dead_error is not None
        ):
            return
        now = time.monotonic()
        for worker in range(self._n_workers):
            if self._alive[worker] or now < self._reconnect_at[worker]:
                continue
            if self._restarts_used >= policy.max_worker_restarts:
                return
            self._restarts_used += 1
            if self._respawn_worker(worker):
                self._n_worker_respawns += 1
                self._pump()

    # ------------------------------------------------------------------ #
    # liveness introspection (the scan service's health probe)
    # ------------------------------------------------------------------ #
    def host_statuses(self) -> list[dict]:
        """Per-host liveness: heartbeat age, broken flag, reconnect backoff."""
        with self._lock:
            now = time.monotonic()
            return [
                {
                    "worker": worker,
                    "host": f"{host}:{port}",
                    "alive": bool(self._alive[worker]),
                    "broken": bool(self._broken[worker]),
                    "seconds_since_heartbeat": now - self._last_heartbeat[worker],
                    "reconnect_backoff_seconds": self._reconnect_backoff[worker],
                    "reconnect_in_seconds": max(
                        0.0, self._reconnect_at[worker] - now
                    ),
                }
                for worker, (host, port) in enumerate(self._addresses)
            ]

    def check_hosts(self) -> list[dict]:
        """Run a health pass now (reap silent hosts, re-admit recovered ones)
        and return :meth:`host_statuses`.  Never raises: a farm found fully
        dead is reported through the statuses, not an exception."""
        from ..parallel.farm import FarmDeadError

        try:
            with self._lock:
                self._check_farm_health()
        except FarmDeadError:
            pass
        return self.host_statuses()

    def _shutdown_transport(self, *, force: bool, join_timeout: float) -> None:
        for worker, conn in enumerate(self._result_conns):
            if conn is None:
                continue
            if not force and not self._broken[worker]:
                try:
                    conn.send(None)
                except (OSError, ValueError):  # pragma: no cover - conn gone
                    pass
            self._close_conn(conn)


def main(argv: Sequence[str] | None = None) -> None:
    """``python -m repro.runtime.remote --bind HOST:PORT`` worker-host entry."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Run a repro-ga remote worker host."
    )
    parser.add_argument(
        "--bind",
        required=True,
        help="address to listen on, e.g. 0.0.0.0:7777 (port 0 = ephemeral)",
    )
    parser.add_argument(
        "--max-connections",
        type=int,
        default=None,
        help="serve this many master connections, then exit (default: forever)",
    )
    options = parser.parse_args(argv)
    address = parse_host(options.bind)
    print(f"repro-ga worker host listening on {address[0]}:{address[1]}", flush=True)
    serve(address, max_connections=options.max_connections)


if __name__ == "__main__":  # pragma: no cover - CLI entry
    main()

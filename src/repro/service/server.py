"""The ``repro serve`` request protocol and its two transports.

:class:`_Connection` is the one implementation of the JSON-lines
protocol (``docs/SERVICE.md``): it parses lines, answers commands,
refuses bad or excess requests and orders replies.  Two drivers feed it:

* :class:`SocketServer` (``repro serve --socket PATH`` / ``--port N``):
  a single-threaded, ``selectors``-driven event loop accepting many
  concurrent clients over a Unix-domain or TCP socket.  Each connection
  gets its own :class:`repro.service.api.ServiceSession`, and every
  session multiplexes onto **one** shared
  :class:`repro.service.scheduler.OptimizationScheduler` and one shared
  artifact cache -- the scheduler's completion callbacks let the loop
  pipeline one client's requests while another client's jobs run.
* :func:`serve_stdio` (plain ``repro serve``): stdin/stdout as a single
  connection.  Reads block: before each line it waits for scheduler
  room, so stdin never sees ``overloaded``.

Contracts:

* **Per-connection order** -- replies to requests leave in request
  order.  A ``stats``/``metrics``/``shutdown`` reply takes its place in
  that order (lines after a command are handled once it is answered).
  Refusals (malformed, bad request, ``overloaded``, draining) leave at
  once and echo the request's ``id`` where one was given.
* **One admission budget** -- a request is refused ``{"status":
  "overloaded", "error": "overloaded", "retry_after": s}`` exactly when
  the scheduler's queue is full (``OptimizationService.queue_cap``,
  ``repro serve --backlog``).  The paired
  :class:`repro.service.client.ServiceClient` retries these with
  jittered exponential backoff.
* **Graceful drain** (sockets) -- SIGTERM stops accepting connections,
  lets running jobs finish, flushes every response buffer, then exits 0.
  Requests arriving *during* the drain are answered
  ``{"status": "cancelled", "error": "server draining"}``; a second
  SIGTERM force-cancels outstanding jobs (each still gets its
  documented ``cancelled`` response -- no client is left hanging).

Metrics (``repro_`` prefix via the registry): ``server_connections``
(gauge), ``server_connections_total``, ``server_backpressure_total``
(counters), ``server_request_seconds`` (per-request latency histogram,
admission to response, on both transports).
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import threading
import time
from typing import IO, Any, Callable, Dict, Optional

from repro.obs.metrics import get_registry
from repro.service.api import OptimizationService, ServiceRequest, ServiceSession
from repro.service.scheduler import OptimizationScheduler, SchedulerFull

#: Event-loop tick: the select timeout bounding scheduler-poll latency.
_TICK_S = 0.05

#: Bytes per recv.
_RECV_SIZE = 65536

#: Default ``retry_after`` hint (seconds) on overloaded replies.
DEFAULT_RETRY_AFTER = 0.25

#: Hard cap on one line (a request is one line; a 16 MiB line is abuse).
_MAX_LINE = 16 * 1024 * 1024


class _Connection:
    """One request stream: the JSON-lines protocol of ``repro serve``.

    Both transports drive it alike: the socket server for every accepted
    client, :func:`serve_stdio` for stdin/stdout.  They :meth:`feed` it
    input bytes and write out :attr:`wbuf`.  Replies to requests leave
    in request order; a command's reply takes its place in that order
    (input after a command is handled once the command is answered);
    refusals leave at once.  A closing connection drops further input.
    """

    def __init__(self, service: OptimizationService, session: ServiceSession,
                 is_draining: Callable[[], bool],
                 retry_after: float = DEFAULT_RETRY_AFTER) -> None:
        self.service = service
        self.session = session
        self.is_draining = is_draining
        self.retry_after = retry_after
        self.rbuf = b""
        self.wbuf = b""
        #: slot index -> admission time, for the latency histogram.
        self.t0: Dict[int, float] = {}
        #: requests admitted == the slot the next request takes.
        self.admitted = 0
        #: replies emitted == the slot ``ready()`` yields next.
        self.served = 0
        #: the reply of a command waiting for every earlier request.
        self.waiting: Optional[Callable[[], Dict[str, Any]]] = None
        #: set by ``shutdown``: flush ``wbuf``, then close.
        self.closing = False

    def feed(self, data: bytes) -> None:
        """Take raw input and handle every line the stream is ready for."""
        self.rbuf += data
        self.pump()

    def pump(self) -> None:
        """Move finished replies into ``wbuf`` in stream order, answer a
        waiting command once its turn comes, then handle held input."""
        while True:
            for resp in self.session.ready():
                t0 = self.t0.pop(self.served, None)
                if t0 is not None:
                    get_registry().histogram("server_request_seconds") \
                        .observe(time.monotonic() - t0)
                self.send(dict(resp.to_json_obj(), id=resp.name))
                self.served += 1
            if self.waiting is not None:
                if self.session.outstanding:
                    return
                self.send(self.waiting())
                self.waiting = None
            line = self._next_line()
            if line is None:
                return
            self.handle_line(line)

    def _next_line(self) -> Optional[str]:
        while not self.closing and b"\n" in self.rbuf:
            line, self.rbuf = self.rbuf.split(b"\n", 1)
            text = line.decode("utf-8", errors="replace").strip()
            if text:
                return text
        return None

    def handle_line(self, text: str) -> None:
        """Answer one command or admit one request."""
        try:
            obj = json.loads(text)
            if not isinstance(obj, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            self.send({"status": "failed", "error": "bad request: %s" % exc})
            return
        cmd = obj.get("cmd")
        if cmd == "stats":
            self.waiting = lambda: self.service.stats(self.served)
            return
        if cmd == "metrics":
            self.waiting = lambda: {
                "status": "ok", "format": "prometheus",
                "text": get_registry().render_prometheus()}
            return
        if cmd == "shutdown":
            # Cancel this stream's outstanding work (each request still
            # gets its cancelled reply, in order), then ack and close.
            self.session.cancel_outstanding()
            self.waiting = self._ack_and_close
            return
        req_id = obj.get("id")
        if self.is_draining():
            self.send(_with_id({"status": "cancelled",
                                "error": "server draining"}, req_id))
            return
        try:
            req = ServiceRequest.parse(obj, str(self.admitted),
                                       self.service.default_timeout)
        except ValueError as exc:
            self.send(_with_id({"status": "failed",
                                "error": "bad request: %s" % exc}, req_id))
            return
        start = time.monotonic()
        try:
            slot = self.session.submit(req)
        except SchedulerFull:
            get_registry().counter("server_backpressure_total").inc()
            self.send(_with_id({"status": "overloaded", "error": "overloaded",
                                "retry_after": self.retry_after}, req_id))
            return
        self.admitted += 1
        self.t0[slot] = start

    def _ack_and_close(self) -> Dict[str, Any]:
        self.closing = True
        return {"status": "ok", "served": self.served}

    def send(self, obj: Dict[str, Any]) -> None:
        self.wbuf += (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


class SocketServer:
    """Socket front door over one shared scheduler (see module doc).

    Exactly one of ``socket_path`` (AF_UNIX) or ``port`` (TCP; ``0``
    binds an ephemeral port, read back from :attr:`address`) must be
    given.  Requests are refused ``overloaded`` once the scheduler's
    queue (``OptimizationService.queue_cap``) is full.
    """

    def __init__(self, service: OptimizationService,
                 socket_path: Optional[str] = None,
                 host: str = "127.0.0.1", port: Optional[int] = None,
                 retry_after: float = DEFAULT_RETRY_AFTER) -> None:
        if (socket_path is None) == (port is None):
            raise ValueError("exactly one of socket_path / port required")
        self.service = service
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.retry_after = retry_after
        self.ready = threading.Event()
        #: Bound address once listening: the socket path, or (host, port).
        self.address: Any = None
        self._listener: Optional[socket.socket] = None
        self._scheduler: Optional[OptimizationScheduler] = None
        self._conns: Dict[socket.socket, _Connection] = {}
        self._draining = False
        self._force = False
        self._metrics = get_registry()

    # -- control --------------------------------------------------------

    def request_shutdown(self) -> None:
        """Begin (or, called again, force) the graceful drain.

        Safe from a signal handler or another thread: it only sets
        flags; the event loop acts on them at the next tick.
        """
        if self._draining:
            self._force = True
        self._draining = True

    # -- lifecycle ------------------------------------------------------

    def serve_forever(self) -> int:
        """Run until drained (SIGTERM / :meth:`request_shutdown`).

        Returns the process exit code: 0 after a clean drain.
        """
        self._scheduler = self.service.make_scheduler()
        listener = self._open_listener()
        sel = selectors.DefaultSelector()
        sel.register(listener, selectors.EVENT_READ)
        self._install_signal_handlers()
        self.ready.set()
        try:
            while True:
                for key, events in sel.select(timeout=_TICK_S):
                    if key.fileobj is listener:
                        self._accept(sel, listener)
                    elif events & selectors.EVENT_READ:
                        self._read(sel, key.fileobj)  # type: ignore[arg-type]
                    elif events & selectors.EVENT_WRITE:
                        self._write(sel, key.fileobj)  # type: ignore[arg-type]
                self._scheduler.poll()
                if self._force:
                    for conn in list(self._conns.values()):
                        conn.session.cancel_outstanding()
                    self._force = False
                for sock in list(self._conns):
                    conn = self._conns.get(sock)
                    if conn is None:
                        continue
                    conn.pump()
                    self._write(sel, sock)
                    if conn.closing and not conn.wbuf \
                            and sock in self._conns:
                        self._close(sel, sock)
                        continue
                    if sock in self._conns:
                        self._update_mask(sel, sock)
                if self._draining:
                    if listener.fileno() != -1:
                        sel.unregister(listener)
                        listener.close()
                    if self._drained():
                        break
        finally:
            self.ready.clear()
            for sock in list(self._conns):
                self._close(sel, sock)
            if listener.fileno() != -1:
                try:
                    sel.unregister(listener)
                except (KeyError, ValueError):
                    pass
                listener.close()
            sel.close()
            self._scheduler.shutdown()
            self._remove_socket_file()
        return 0

    def _drained(self) -> bool:
        if any(c.session.outstanding for c in self._conns.values()):
            return False
        return not any(c.wbuf for c in self._conns.values())

    def _open_listener(self) -> socket.socket:
        if self.socket_path is not None:
            self._remove_socket_file()
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(self.socket_path)
            self.address = self.socket_path
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port or 0))
            self.address = listener.getsockname()
        listener.listen(128)
        listener.setblocking(False)
        self._listener = listener
        return listener

    def _remove_socket_file(self) -> None:
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    def _install_signal_handlers(self) -> None:
        # Signal handlers only exist in the main thread; tests drive the
        # server from a worker thread via request_shutdown() instead.
        if threading.current_thread() is not threading.main_thread():
            return

        def _on_sigterm(signum: int, frame: Any) -> None:
            self.request_shutdown()

        signal.signal(signal.SIGTERM, _on_sigterm)
        signal.signal(signal.SIGINT, _on_sigterm)

    # -- connection handling --------------------------------------------

    def _accept(self, sel: selectors.BaseSelector,
                listener: socket.socket) -> None:
        while True:
            try:
                sock, _addr = listener.accept()
            except (BlockingIOError, OSError):
                return
            if self._draining:
                sock.close()
                continue
            sock.setblocking(False)
            assert self._scheduler is not None
            self._conns[sock] = _Connection(
                self.service, self.service.session(scheduler=self._scheduler),
                lambda: self._draining, self.retry_after)
            sel.register(sock, selectors.EVENT_READ)
            self._metrics.counter("server_connections_total").inc()
            self._metrics.gauge("server_connections").set(len(self._conns))

    def _close(self, sel: selectors.BaseSelector,
               sock: socket.socket) -> None:
        conn = self._conns.pop(sock, None)
        try:
            sel.unregister(sock)
        except (KeyError, ValueError):
            pass
        sock.close()
        if conn is not None and conn.session.outstanding:
            # The peer is gone; free its scheduler slots so other
            # clients' jobs start sooner (first verdict still wins for
            # jobs that already finished -- they land in the cache).
            conn.session.cancel_outstanding()
        self._metrics.gauge("server_connections").set(len(self._conns))

    def _read(self, sel: selectors.BaseSelector,
              sock: socket.socket) -> None:
        conn = self._conns.get(sock)
        if conn is None:
            return
        try:
            data = sock.recv(_RECV_SIZE)
        except BlockingIOError:
            return
        except OSError:
            self._close(sel, sock)
            return
        if not data:
            self._close(sel, sock)
            return
        if conn.closing:
            return
        if len(conn.rbuf) + len(data) > _MAX_LINE:
            conn.send({"status": "failed", "error": "request line too long"})
            conn.closing = True
            return
        conn.feed(data)

    def _write(self, sel: selectors.BaseSelector,
               sock: socket.socket) -> None:
        conn = self._conns.get(sock)
        if conn is None or not conn.wbuf:
            return
        try:
            sent = sock.send(conn.wbuf)
            conn.wbuf = conn.wbuf[sent:]
        except BlockingIOError:
            return
        except OSError:
            self._close(sel, sock)

    def _update_mask(self, sel: selectors.BaseSelector,
                     sock: socket.socket) -> None:
        conn = self._conns.get(sock)
        if conn is None:
            return
        mask = selectors.EVENT_READ
        if conn.wbuf:
            mask |= selectors.EVENT_WRITE
        try:
            sel.modify(sock, mask)
        except (KeyError, ValueError):
            pass


def _with_id(obj: Dict[str, Any], req_id: Any) -> Dict[str, Any]:
    if req_id is not None:
        obj = dict(obj, id=req_id)
    return obj


def serve_stdio(service: OptimizationService, stdin: IO[str],
                stdout: IO[str]) -> int:
    """Serve ``stdin`` as one connection until EOF or ``shutdown``.

    Returns the number of requests served.  Requests pipeline onto the
    scheduler between lines.  Reads block instead of refusing: before
    each line the loop waits for queue room, and after a command until
    it is answered.
    """
    session = service.session()
    conn = _Connection(service, session, lambda: False)

    def flush() -> None:
        conn.pump()
        if conn.wbuf:
            stdout.write(conn.wbuf.decode("utf-8"))
            stdout.flush()
            conn.wbuf = b""

    try:
        for line in stdin:
            text = line.strip()
            if not text:
                continue
            service.wait_for_room(session)
            conn.feed(text.encode("utf-8", errors="replace") + b"\n")
            if conn.waiting is not None:
                session.drain()
            flush()
            if conn.closing:
                break
        session.drain()
        flush()
        return conn.served
    finally:
        if session.scheduler_started:
            session.scheduler().shutdown()

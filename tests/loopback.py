"""A scripted HTTP server on 127.0.0.1 for tests of the real HTTP transport."""

import itertools
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Sequence, Union


@dataclass(frozen=True)
class Reply:
    """One scripted response: a dict body goes out as JSON, bytes as they are.

    ``close`` closes the connection after the reply without sending
    ``Connection: close``, as a server that drops an idle connection does.
    """

    status: int
    body: Union[dict, bytes]
    delay: float = 0.0
    headers: Dict[str, str] = field(default_factory=dict)
    close: bool = False


HANG_UP = Reply(0, b"")  # read the request, then close the connection without a reply


class LoopbackServer:
    """Answers the n-th request with the n-th reply; the last reply repeats.

    Use as a context manager.  ``requests`` records each POST's (or, as a
    proxy sees a tunnel, CONNECT's) method, target path, headers, JSON
    payload and connection number in arrival order, so its length is the
    number of attempts the server saw.  Connections are numbered from 1 in
    the order they were accepted.
    """

    def __init__(self, replies: Sequence[Reply]):
        self.replies = list(replies)
        self.requests: List[dict] = []
        self._lock = threading.Lock()
        connection_numbers = itertools.count(1)
        owner = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True  # head and body go out in two writes

            def setup(self):
                super().setup()
                self.connection_number = next(connection_numbers)

            def do_POST(self):
                raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                with owner._lock:
                    owner.requests.append(
                        {
                            "method": self.command,
                            "path": self.path,
                            "headers": dict(self.headers),
                            "payload": json.loads(raw) if raw else None,
                            "connection": self.connection_number,
                        }
                    )
                    reply = owner.replies[min(len(owner.requests), len(owner.replies)) - 1]
                if reply is HANG_UP:
                    self.close_connection = True
                    return
                if reply.delay:  # tests that patch time.sleep see only the client's
                    time.sleep(reply.delay)
                body = reply.body
                if not isinstance(body, bytes):
                    body = json.dumps(body).encode()
                try:
                    self.send_response(reply.status)
                    for name, value in reply.headers.items():
                        self.send_header(name, value)
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the client timed out and hung up
                if reply.close:
                    self.close_connection = True

            do_CONNECT = do_POST

            def log_message(self, format, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}/v1"
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.005}
        )

    def __enter__(self) -> "LoopbackServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


class ClosedPort:
    """A loopback URL whose port is bound but not listening, so every connect is refused."""

    def __init__(self):
        self._socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._socket.bind(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self._socket.getsockname()[1]}/v1"

    def __enter__(self) -> "ClosedPort":
        return self

    def __exit__(self, *exc_info) -> None:
        self._socket.close()

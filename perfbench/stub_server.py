"""Stub chat-completion server for the eval-http workload.

Speaks the ``POST /chat/completions`` protocol of ``HttpChatBackend``,
answers from a mock script after a fixed service delay, and counts the
POSTs and the TCP connections that carry them (``GET /stats``). Run as
a child process:

    python3 perfbench/stub_server.py --script mock_script.json --delay 0.02

It binds an ephemeral port on 127.0.0.1 and prints it as its first line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from mathcontrast.errors import UnknownPrompt  # noqa: E402
from mathcontrast.gateway import ChatRequest, MockBackend  # noqa: E402


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, script: str, delay: float):
        super().__init__(("127.0.0.1", 0), Handler)
        # stateful, so the independent single-sample POSTs of one
        # multi-guess request each take the next scripted guess
        self.mock = MockBackend.from_file(script)
        self.mock.stateful = True
        self.delay = delay
        self.stats = {"posts": 0, "connections": 0}
        self.lock = threading.Lock()


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # headers and body go out in separate writes; without TCP_NODELAY the
    # client's delayed ACK would add ~40 ms to every response
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        self.served = False

    def _send(self, status: int, obj) -> None:
        body = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        with self.server.lock:
            stats = dict(self.server.stats)
        self._send(200, stats)

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.server.lock:
            self.server.stats["posts"] += 1
            # count connections that carry completions, not the GETs of /stats
            self.server.stats["connections"] += not self.served
        self.served = True
        time.sleep(self.server.delay)
        req = ChatRequest(
            tuple((m["role"], m["content"]) for m in payload["messages"]),
            sample_count=int(payload.get("n", 1)),
        )
        try:
            completions = self.server.mock.complete(req).completions
            # the mock keeps every request it served; nothing reads them here
            self.server.mock.calls.clear()
        except UnknownPrompt as exc:
            self._send(400, {"error": str(exc)})
            return
        words = sum(len(c.split()) for c in completions)
        self._send(
            200,
            {
                "choices": [
                    {"index": i, "message": {"role": "assistant", "content": c}}
                    for i, c in enumerate(completions)
                ],
                "usage": {"prompt_tokens": 0, "completion_tokens": words, "total_tokens": words},
            },
        )

    def log_message(self, format, *args):
        pass


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--script", required=True)
    parser.add_argument("--delay", type=float, required=True)
    args = parser.parse_args()
    server = StubServer(args.script, args.delay)
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()

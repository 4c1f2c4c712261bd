"""Stub OpenAI-compatible model server that follows a seeded per-query plan.

    python3 perfbench/stub_server.py PLAN.json

Binds a free loopback port, prints ``PORT <n>`` and serves until it gets
SIGTERM or its standard input closes (so it ends with the process that
started it).  Endpoints:

- ``POST /v1/chat/completions`` and ``POST /v1/embeddings``: answer from the
  plan after a fixed per-role service delay;
- ``GET /_log``: return and clear the request log (role, status, service
  time, bytes in and out, connection number).

The plan maps each query text to its embedding, prune depth, route (set
through the answer's log-probabilities), decouple iteration count, judge
score and optional fault.  Every response goes out in one write with a
Content-Length header, over HTTP/1.1 keep-alive: split header and body
writes make a keep-alive client stall on delayed ACKs (~40 ms per call).
"""

import itertools
import json
import math
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# First line of each prompt template, which names the role of a request.
ROLE_PREFIXES = (
    ("Answer the question using only", "answer"),
    ("Decide whether the material below", "sufficiency_probe"),
    ("From the documents below, list", "salient_extract"),
    ("The salient knowledge below relates", "fineprint_mine"),
    ("Separate the mined details below", "decouple"),
    ("Produce the final answer", "summarize"),
    ("Score how well the prediction", "judge_score"),
)
LOW_ENTROPY_LOGPROB = -0.001  # p ~ 0.999: normalized entropy ~0.003, routes LQP
HIGH_ENTROPY_LOGPROB = math.log(0.5)  # normalized entropy e*ln(2)/2 ~ 0.94, routes HQP
ITER_RE = re.compile(r"(mined|decoupled) t=(\d+)")


def _completion(text: str, logprob: float = -0.01, tokens: int = 6) -> dict:
    return {
        "choices": [
            {
                "message": {"role": "assistant", "content": text},
                "logprobs": {"content": [{"token": "t", "logprob": logprob}] * tokens},
                "finish_reason": "stop",
            }
        ]
    }


def _section(prompt: str, title: str) -> str:
    """Text between a ``title:`` line and the next blank line."""
    _, _, rest = prompt.partition(f"\n{title}:\n")
    return rest.split("\n\n", 1)[0]


class PlanState:
    def __init__(self, plan: dict):
        self.queries = plan["queries"]
        self.delays = {role: ms / 1000.0 for role, ms in plan["delays_ms"].items()}
        self.lock = threading.Lock()
        self.attempts = {}
        self.log = []
        self.connection_ids = itertools.count(1)

    def is_odd_attempt(self, key) -> bool:
        """True on the 1st, 3rd, ... request for ``key``: one fault per run."""
        with self.lock:
            self.attempts[key] = self.attempts.get(key, 0) + 1
            return self.attempts[key] % 2 == 1

    def respond(self, path: str, body: dict):
        """(role, status, payload) for one request."""
        if path.endswith("/embeddings"):
            entry = self.queries[body["input"]]
            return "embed", 200, {"data": [{"embedding": entry["embedding"]}]}
        prompt = body["messages"][0]["content"]
        role = next((r for prefix, r in ROLE_PREFIXES if prompt.startswith(prefix)), None)
        if role is None:
            return "unknown", 400, {"error": "unrecognised prompt"}
        query = prompt.split("\nQuestion: ", 1)[1].split("\n", 1)[0]
        entry = self.queries[query]
        qid = entry["qid"]
        if entry["fault"] == "503" and role == "answer" and self.is_odd_attempt((qid, role)):
            return role, 503, {"error": "transient overload"}
        if role == "answer":
            logprob = LOW_ENTROPY_LOGPROB if entry["route"] == "LQP" else HIGH_ENTROPY_LOGPROB
            return role, 200, _completion(f"initial answer for {qid}", logprob)
        if role == "sufficiency_probe":
            material = _section(prompt, "Material")
            found = ITER_RE.search(material)
            if found:  # the decoupler's answerability probe
                done = int(found.group(2)) >= entry["iters"]
            else:  # the pruner's probe over the buffer
                done = material.count("\n[") + 1 >= entry["depth"]
            return role, 200, _completion("YES - enough" if done else "NO - need more")
        if role == "fineprint_mine":
            found = ITER_RE.search(_section(prompt, "Previously mined details"))
            t = int(found.group(2)) + 1 if found else 1
            return role, 200, _completion(f"1. mined t={t} detail for {qid}")
        if role == "decouple":
            t = ITER_RE.search(_section(prompt, "Mined details")).group(2)
            return role, 200, _completion(f"1. decoupled t={t} detail for {qid}")
        if role == "judge_score":
            if entry["fault"] == "judge" and self.is_odd_attempt((qid, role)):
                return role, 200, _completion("the prediction looks plausible")
            return role, 200, _completion(f"matches the reference\n{entry['score']}")
        if role == "salient_extract":
            return role, 200, _completion(f"1. salient fact for {qid}")
        return role, 200, _completion(f"final answer for {qid}")


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    state: PlanState = None

    def setup(self):
        super().setup()
        self.connection_number = next(self.state.connection_ids)

    def _send(self, status: int, payload: dict) -> int:
        body = json.dumps(payload).encode()
        reason = self.responses.get(status, ("",))[0]
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        self.wfile.write(head + body)
        return len(head) + len(body)

    def _head_bytes(self) -> int:
        fields = sum(len(k) + len(v) + 4 for k, v in self.headers.items())
        return len(self.requestline) + 2 + fields + 2

    def do_GET(self):
        if self.path != "/_log":
            self._send(404, {"error": "not found"})
            return
        with self.state.lock:
            payload, self.state.log = self.state.log, []
        self._send(200, payload)

    def do_POST(self):
        start = time.perf_counter()
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        try:
            role, status, payload = self.state.respond(self.path, json.loads(raw))
        except (KeyError, IndexError, AttributeError, ValueError) as exc:
            role, status, payload = "unknown", 400, {"error": f"bad request: {exc!r}"}
        if status == 200:
            time.sleep(self.state.delays.get(role, 0.0))
        sent = self._send(status, payload)
        entry = {
            "role": role,
            "status": status,
            "service_ms": (time.perf_counter() - start) * 1000.0,
            "bytes_in": len(raw) + self._head_bytes(),
            "bytes_out": sent,
            "connection": self.connection_number,
        }
        with self.state.lock:
            self.state.log.append(entry)

    def log_message(self, format, *args):
        pass


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        Handler.state = PlanState(json.load(handle))
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)

    def stop_when_parent_goes():
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=stop_when_parent_goes, daemon=True).start()
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

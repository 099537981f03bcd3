"""Loopback OpenAI-compatible stub for the run-http workload.

    python3 perfbench/stub.py --seed 0

Binds 127.0.0.1 on a free port and prints the port on the first stdout line.
POST /chat/completions and POST /embeddings answer deterministically from a
hash of the request after a fixed service delay, DELAY_S; GET /stats returns
the counters.  Embedding vectors, DIM wide, come from a fixed bank serialized
once at start, so the stub's own work stays small and constant per request.
Each response goes out in a single write on a socket with Nagle disabled, so
no request waits on a delayed ACK.
"""

import argparse
import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

BANK_SIZE = 64
DELAY_S = 0.005
DIM = 1536


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.chat = 0
        self.embeddings = 0
        self.service_s = 0.0
        self.inflight = 0
        self.inflight_max = 0

    def snapshot(self):
        with self.lock:
            return {"requests": self.requests, "chat": self.chat,
                    "embeddings": self.embeddings, "service_s": self.service_s,
                    "inflight_max": self.inflight_max}


def make_handler(stats, delay_s, bank, seed):
    def digest(data):
        return int.from_bytes(hashlib.sha256(seed + data).digest()[:8], "big")

    def chat_body(raw):
        letter = "ABCD"[digest(raw) % 4]
        return json.dumps({"choices": [{"index": 0, "message": {
            "role": "assistant",
            "content": f"Weighing the options, the answer is ({letter})."}}]}).encode()

    def embeddings_body(raw):
        texts = json.loads(raw)["input"]
        items = ",".join(
            f'{{"index":{i},"embedding":{bank[digest(t.encode()) % len(bank)]}}}'
            for i, t in enumerate(texts))
        return f'{{"object":"list","data":[{items}]}}'.encode()

    routes = {"/chat/completions": ("chat", chat_body),
              "/embeddings": ("embeddings", embeddings_body)}

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def log_message(self, *args):
            pass

        def _send(self, status, body):
            head = (f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n").encode()
            self.wfile.write(head + body)

        def do_GET(self):
            if self.path != "/stats":
                self._send("404 Not Found", b"{}")
                return
            self._send("200 OK", json.dumps(stats.snapshot()).encode())

        def do_POST(self):
            start = time.perf_counter()
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            suffix = next((s for s in routes if self.path.endswith(s)), None)
            if suffix is None:
                self._send("404 Not Found", b"{}")
                return
            kind, body_of = routes[suffix]
            with stats.lock:
                stats.inflight += 1
                stats.inflight_max = max(stats.inflight_max, stats.inflight)
            body = body_of(raw)
            time.sleep(max(0.0, delay_s - (time.perf_counter() - start)))
            # settle the counters first: once the response is out, the client
            # may send its next request
            with stats.lock:
                stats.inflight -= 1
                stats.requests += 1
                setattr(stats, kind, getattr(stats, kind) + 1)
                stats.service_s += time.perf_counter() - start
            self._send("200 OK", body)

    return Handler


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()

    rng = np.random.default_rng([args.seed, 3])
    bank = []
    for _ in range(BANK_SIZE):
        v = rng.standard_normal(DIM)
        bank.append(json.dumps((v / np.linalg.norm(v)).tolist()))
    stats = Stats()
    handler = make_handler(stats, DELAY_S, bank, str(args.seed).encode())
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()

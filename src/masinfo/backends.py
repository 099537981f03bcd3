"""Chat and embedding backends, and `build`, which makes them from a config.

Kind "mock" is deterministic and in-process, for tests and dry runs, and its
embedder keeps each text's vector for its lifetime, one run; kind "openai"
speaks the OpenAI-compatible HTTP schema through one retrying JSONClient and
keeps nothing between requests.  This module imports masinfo.harness, never
the reverse.
"""

import hashlib
import json
import os
import re
import threading
import time

import numpy as np

from masinfo.harness import (DEBATE_MARKER, BackendError, extract_answer, is_count,
                             majority_answer)


class TransientBackendError(BackendError):
    """A failure a retry may cure: HTTP 5xx or 429, a connection error or a timeout.

    `retry_after` holds the seconds a 429 or 503 reply's Retry-After header
    asked for when it came (negative for a date in the past), or None.
    """

    retry_after = None


class MockChatBackend:
    """Deterministic in-process chat backend.

    `messages` has the shape harness._issue_round sends, an agent's system
    messages then one user message: the user text is the last message's, and
    the system text the first message's when there are two or more.

    Round-1 answers come from `initial_answers` when given, otherwise from
    a seeded hash of the full prompt.  In later debate rounds the mock
    answers the majority of the previous round, which makes convergence
    behavior easy to script in tests.

    `deterministic` (True) marks a backend as in-process and reproducible:
    `run_tasks` then issues its calls on the calling thread, and transcripts
    carry FIXED_TIMESTAMP and `latency_ms` 0.
    """

    deterministic = True
    choices = ("A", "B", "C", "D")

    def __init__(self, seed=0, initial_answers=None):
        self.seed = seed
        self._initial = list(initial_answers) if initial_answers else None
        self._lock = threading.Lock()
        # (block, majority) of the last debate block parsed: every agent of a
        # round sees the same one.  Replaced whole, so a concurrent reader
        # sees a matching pair or recomputes.
        self._last_block = (None, None)

    def _seeded_choice(self, prompt_key):
        digest = hashlib.sha256(f"{self.seed}|{prompt_key}".encode()).digest()
        return self.choices[int.from_bytes(digest[:8], "big") % len(self.choices)]

    def chat(self, messages, model, decoding):
        user = messages[-1]["content"]
        system = messages[0]["content"] if len(messages) > 1 else ""
        at = user.find(DEBATE_MARKER)
        if at != -1:
            block = user[at + len(DEBATE_MARKER):]
            last = self._last_block
            if last[0] != block:
                prev = [extract_answer(line, "mc") for line in block.splitlines()]
                last = self._last_block = (block, majority_answer(prev)[0])
            winner = last[1]
            if winner is not None:
                return f"Considering the discussion, the answer is ({winner})."
        if self._initial is not None:
            with self._lock:
                if self._initial:
                    letter = self._initial.pop(0)
                    return f"I think the answer is ({letter})."
        letter = self._seeded_choice(f"{system}|{user}|{model}")
        return f"I think the answer is ({letter})."


class MockEmbeddingBackend:
    """Deterministic unit-vector embeddings hashed from the text; `deterministic`
    (in-process and reproducible) as MockChatBackend is.

    A text's vector is drawn once and kept for the backend's lifetime, one
    `run`, since a mock run's outputs repeat across its transcripts; each
    call returns fresh lists, which the caller may change.  It takes a batch
    of any size: without `max_batch`, fetch_embeddings sends all texts at once.
    """

    deterministic = True

    def __init__(self, dim=8, seed=0):
        if not is_count(dim):
            raise ValueError(f"backend dim must be an integer >= 1, got {dim!r}")
        self.dim = dim
        self.seed = seed
        self._vectors = {}  # text -> its vector

    def embed(self, texts):
        new = [t for t in dict.fromkeys(texts) if t not in self._vectors]
        if new:
            # Each text draws what Generator(Philox(key=k)) draws.  Re-keying
            # one bit generator through its state setter skips the OS entropy
            # that every Philox construction reads and `key=` then discards;
            # the generator is per call, so concurrent calls share no state.
            bitgen = np.random.Philox(key=0)
            rng = np.random.Generator(bitgen)
            fresh = bitgen.state
            for t in new:
                digest = hashlib.sha256(f"{self.seed}|{t}".encode()).digest()
                fresh["state"]["key"][0] = int.from_bytes(digest[:8], "big")
                bitgen.state = fresh
                v = rng.standard_normal(self.dim)
                self._vectors[t] = (v / np.linalg.norm(v)).tolist()
        return [self._vectors[t].copy() for t in texts]


_DELAY_SECONDS = re.compile(r"[0-9]+")  # Retry-After's delay-seconds form (RFC 9110)


def _retry_after(value):
    """Seconds from now that a Retry-After value names: delay-seconds, or an
    HTTP-date less the clock (RFC 9110); None for anything else."""
    if _DELAY_SECONDS.fullmatch(value):
        return int(value)
    # imported here, as is the rest of the HTTP client, so only a networked run loads it
    import datetime
    import email.utils

    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError, IndexError, OverflowError):  # e.g. a ten-digit year
        return None
    if when.tzinfo is None:  # "-0000", a GMT time of unknown origin
        when = when.replace(tzinfo=datetime.timezone.utc)
    return when.timestamp() - time.time()


class JSONClient:
    """POSTs JSON to paths under one base URL and returns the decoded reply.

    Keep-alive connections are reused across threads: a request takes an
    idle one or opens a new one, so there are never more connections than
    requests in flight at once.  Proxies come from the environment
    (HTTP_PROXY, HTTPS_PROXY, NO_PROXY); HTTPS verifies against the system
    CA store.  HTTP 5xx and 429, connection errors and timeouts are retried
    up to `max_retries` times with exponential back-off; any other 4xx
    fails at once.  A 429 or 503 whose Retry-After is a number of seconds, or
    an HTTP-date, waits that long (until then) instead when it is longer,
    but never more than `timeout`; a date in the past or any other
    Retry-After keeps the back-off.
    """

    def __init__(self, base_url, api_key=None, max_retries=3, backoff=1.0, timeout=60.0):
        # imported here, so no command but a networked run loads the HTTP/TLS client
        import base64
        import ssl
        import urllib.parse
        import urllib.request

        url = urllib.parse.urlsplit(base_url.rstrip("/"))
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"backend URL must be http(s)://host/...: {base_url!r}")
        self.max_retries = max_retries
        self.backoff = backoff
        self.timeout = timeout
        self._https = url.scheme == "https"
        self._target = (url.hostname, url.port)
        self._prefix = url.path
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        self._proxy = None
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.netloc):
            proxy = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
            self._proxy = (proxy.hostname, proxy.port or 80)
            proxy_headers = {}
            if proxy.username:
                creds = f"{urllib.parse.unquote(proxy.username)}:" \
                        f"{urllib.parse.unquote(proxy.password or '')}"
                proxy_headers["Proxy-Authorization"] = \
                    "Basic " + base64.b64encode(creds.encode()).decode()
            if self._https:
                self._tunnel_headers = proxy_headers
            else:
                # a plain-HTTP proxy takes the absolute URI in the request line
                self._prefix = f"http://{url.netloc}{url.path}"
                self._headers.update(proxy_headers)
        self._ssl = ssl.create_default_context() if self._https else None
        self._lock = threading.Lock()
        self._idle = []

    def _connect(self):
        import http.client

        host, port = self._proxy or self._target
        if not self._https:
            return http.client.HTTPConnection(host, port, timeout=self.timeout)
        conn = http.client.HTTPSConnection(host, port, timeout=self.timeout, context=self._ssl)
        if self._proxy:
            conn.set_tunnel(*self._target, headers=self._tunnel_headers)
        return conn

    def _exchange(self, url, body):
        import http.client
        import select

        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is None:
            conn = self._connect()
        elif conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
            # an idle keep-alive socket that reads as ready was closed by the
            # server; a closed connection reopens on its next request
            conn.close()
        try:
            # http.client sends the headers and a bytes body in two writes; it
            # sets TCP_NODELAY on connect, so the body does not wait on Nagle
            conn.request("POST", url, body, self._headers)
            resp = conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise TransientBackendError(f"POST {url}: {exc!r}") from exc
        finally:
            with self._lock:
                self._idle.append(conn)
        if resp.status == 429 or resp.status >= 500:
            exc = TransientBackendError(f"server error {resp.status} from {url}")
            if resp.status in (429, 503):
                exc.retry_after = _retry_after(resp.getheader("Retry-After", "").strip())
            raise exc
        if resp.status >= 400:
            raise BackendError(f"request rejected ({resp.status}) by {url}: {data[:200]!r}")
        # imported here, so the toolkit commands never load it
        import orjson

        try:
            return orjson.loads(data)
        except ValueError as exc:
            raise TransientBackendError(f"malformed JSON from {url}: {exc}") from exc

    def post(self, path, payload):
        url = self._prefix + path
        body = json.dumps(payload).encode()
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(max(self.backoff * 2 ** (attempt - 1),
                               min(last.retry_after or 0, self.timeout)))
            try:
                return self._exchange(url, body)
            except TransientBackendError as exc:
                last = exc
        raise last

    def close(self):
        with self._lock:
            conns, self._idle = self._idle, []
        for conn in conns:
            conn.close()


class _OpenAIBackend:
    """A client of an OpenAI-compatible API.  Not `deterministic`: its calls
    wait on the network, so `run_tasks` overlaps them on a thread pool, and
    transcripts carry the wall-clock timestamp and measured latencies."""

    deterministic = False

    def __init__(self, base_url, api_key=None, max_retries=3, backoff=1.0, timeout=60.0):
        self.client = JSONClient(base_url, api_key, max_retries, backoff, timeout)

    def close(self):
        self.client.close()


class OpenAIChatBackend(_OpenAIBackend):
    """OpenAI-compatible /chat/completions client."""

    def chat(self, messages, model, decoding):
        data = self.client.post("/chat/completions", {
            "model": model, "messages": messages, "temperature": decoding.temperature,
            "top_p": decoding.top_p, "max_tokens": decoding.max_tokens})
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            # cut as JSONClient cuts a rejected body: a failed call's error is
            # written to its transcript
            raise BackendError(f"malformed chat response: {str(data)[:200]}") from exc
        # a null (a refusal or a tool call) or a list of parts is no answer text
        if not isinstance(content, str):
            raise BackendError(f"malformed chat response: {str(data)[:200]}")
        return content


class OpenAIEmbeddingBackend(_OpenAIBackend):
    """OpenAI-compatible /embeddings client; `fetch_embeddings` sends it at
    most `max_batch` texts a request."""

    max_batch = 128

    def __init__(self, base_url, model, api_key=None, max_retries=3, backoff=1.0, timeout=60.0):
        super().__init__(base_url, api_key, max_retries, backoff, timeout)
        self.model = model

    def embed(self, texts):
        """One vector per text, in the order of `texts`, placed by the reply's indices.

        Raises BackendError unless the reply's `index` fields are exactly the
        ints 0..n-1 for n texts.
        """
        texts = list(texts)
        data = self.client.post("/embeddings", {"model": self.model, "input": texts})
        try:
            indices = [r["index"] for r in data["data"]]
            vectors = [r["embedding"] for r in data["data"]]
        except (KeyError, TypeError) as exc:
            raise BackendError(f"malformed embedding response: {str(data)[:200]}") from exc
        # a bool is no index, though it is an int subclass
        if (any(type(i) is not int for i in indices)
                or sorted(indices) != list(range(len(texts)))):
            raise BackendError(f"embedding response indices {indices} are not "
                               f"0..{len(texts) - 1}, one per text")
        placed = dict(zip(indices, vectors))
        return [placed[i] for i in range(len(texts))]


def build(spec, seed):
    """(chat, embedder) of a config's `backend` object `spec`, one branch per kind;
    `seed` seeds a mock.  ValueError names a field that is missing or mistyped.
    No connection is opened before the first request."""
    if not isinstance(spec, dict):
        raise ValueError(f"backend must be a JSON object, got {spec!r}")
    for key in ("chat_url", "embed_url", "embed_model", "api_key_env"):
        if key in spec and not isinstance(spec[key], str):
            raise ValueError(f"backend {key} must be a string, got {spec[key]!r}")
    kind = spec.get("kind", "mock")
    if kind == "mock":
        return MockChatBackend(seed=seed), MockEmbeddingBackend(spec.get("dim", 8), seed)
    if kind == "openai":
        if not spec.get("chat_url"):
            raise ValueError("backend kind 'openai' needs a chat_url")
        # secrets come only from the environment variable named in config
        api_key = os.environ.get(spec.get("api_key_env", ""), None)
        chat = OpenAIChatBackend(spec["chat_url"], api_key=api_key)
        if not spec.get("embed_url"):
            return chat, None
        return chat, OpenAIEmbeddingBackend(spec["embed_url"], spec.get("embed_model", ""),
                                            api_key=api_key)
    raise ValueError(f"unknown backend kind {kind!r}")

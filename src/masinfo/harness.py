"""Vote and Debate workflow execution over configurable agent pools.

Agents are described by (model, persona, decoding) configuration types and
assembled into pools by diversity layer:

  L1  single model, default prompt (homogeneous baseline)
  L2  single model, distinct personas
  L3  models round-robin, default prompt
  L4  models and personas both varied

Backends speak the OpenAI-compatible chat-completions / embeddings HTTP
schema, or a deterministic in-process mock for tests and dry runs.
Transcripts persist as append-only JSONL, one per line, schema-versioned.
"""

import collections
import hashlib
import itertools
import json
import math
import re
import threading
import time
import types
import urllib.parse
from dataclasses import dataclass, field, fields
from decimal import Decimal, InvalidOperation

import numpy as np

from masinfo.spectral import ZERO_NORM_TOL, is_finite_number_list

SCHEMA_VERSION = 1
FIXED_TIMESTAMP = "1970-01-01T00:00:00Z"

LAYERS = ("L1", "L2", "L3", "L4")

DEFAULT_PERSONAS = {
    "mathematician": "You are an expert mathematician who reasons with rigorous algebra.",
    "logician": "You are a careful logician who checks every inference step.",
    "engineer": "You are a pragmatic engineer who estimates numerically before answering.",
    "skeptic": "You are a professional skeptic who tries to falsify the obvious answer first.",
    "teacher": "You are a patient teacher who explains the solution from first principles.",
    "statistician": "You are a statistician who weighs evidence probabilistically.",
    "debater": "You are a competitive debater who considers the strongest counterargument.",
    "scientist": "You are an empirical scientist who reasons from concrete examples.",
}


class BackendError(RuntimeError):
    """A backend request failed, and retrying it will not help unless the
    error is a TransientBackendError."""

    def __init__(self, message, call_index=None):
        self.call_index = call_index
        super().__init__(message)


class TransientBackendError(BackendError):
    """A failure a retry may cure: HTTP 5xx or 429, a connection error or a timeout.

    `retry_after` holds the seconds a 429 or 503 reply's Retry-After header
    asked for when it came (negative for a date in the past), or None.
    """

    retry_after = None


class DimensionMismatch(ValueError):
    pass


class InsufficientPool(ValueError):
    pass


@dataclass(frozen=True)
class Decoding:
    temperature: float = 0.7
    top_p: float = 0.95
    max_tokens: int = 1024

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must lie in (0, 1]")


@dataclass(frozen=True)
class AgentConfig:
    model_id: str
    persona_id: str = None
    decoding: Decoding = field(default_factory=Decoding)

    @property
    def type_label(self):
        # the label is a pure function of (model, persona, decoding), so
        # equal tuples share a type
        d = self.decoding
        return (
            f"{self.model_id}|{self.persona_id or 'default'}"
            f"|t{d.temperature}|p{d.top_p}|m{d.max_tokens}"
        )


def build_layer_pool(layer, models, personas, n_agents):
    """Assemble n agent configs for a diversity layer.

    L1 repeats one config; L2 cycles personas over one model; L3 cycles
    models with the default prompt; L4 cycles models and personas jointly,
    stepping both so consecutive agents differ in both axes when the pools
    allow it.
    """
    if layer not in LAYERS:
        raise ValueError(f"unknown layer {layer!r}; expected one of {LAYERS}")
    if n_agents < 1:
        raise ValueError("n_agents must be >= 1")
    if not models:
        raise InsufficientPool("model pool is empty")
    decoding = Decoding()

    if layer == "L1":
        return [AgentConfig(models[0], None, decoding) for _ in range(n_agents)]
    if layer == "L2":
        if len(personas) < 2:
            raise InsufficientPool("L2 needs at least 2 personas")
        return [AgentConfig(models[0], personas[i % len(personas)], decoding) for i in range(n_agents)]
    if layer == "L3":
        if len(models) < 2:
            raise InsufficientPool("L3 needs at least 2 models")
        return [AgentConfig(models[i % len(models)], None, decoding) for i in range(n_agents)]
    # L4: advance both pools each step.  Stepping model and persona indices
    # together walks lcm(M, P) distinct pairs; shifting the persona index by
    # one per completed walk visits every (model, persona) pair before any
    # repeats, so the first M*P agents are all distinct.
    if len(models) < 2 or len(personas) < 2:
        raise InsufficientPool("L4 needs at least 2 models and 2 personas")
    cycle = math.lcm(len(models), len(personas))
    pool = []
    for i in range(n_agents):
        m = models[i % len(models)]
        p = personas[(i + i // cycle) % len(personas)]
        pool.append(AgentConfig(m, p, decoding))
    return pool


@dataclass(frozen=True)
class DiversityPlan:
    layer: str
    model_pool: tuple
    persona_pool: tuple = ()
    persona_catalog: dict = field(default_factory=lambda: dict(DEFAULT_PERSONAS))

    def configs(self, n_agents):
        return build_layer_pool(self.layer, list(self.model_pool), list(self.persona_pool),
                                n_agents)

    def persona_text(self, persona_id):
        if persona_id is None:
            return None
        try:
            return self.persona_catalog[persona_id]
        except KeyError as exc:
            raise InsufficientPool(f"persona {persona_id!r} missing from catalog") from exc


@dataclass(frozen=True)
class WorkflowSpec:
    """A workflow: `num_agents` agents over `rounds` rounds, N*R calls in all.

    Vote (sampling and majority voting) is the single-round case; Debate runs
    4 rounds unless told otherwise.
    """

    kind: str  # "vote" | "debate"
    num_agents: int
    rounds: int = None

    def __post_init__(self):
        if self.kind not in ("vote", "debate"):
            raise ValueError("kind must be 'vote' or 'debate'")
        rounds = self.rounds
        if rounds is None:
            rounds = 1 if self.kind == "vote" else 4
            object.__setattr__(self, "rounds", rounds)
        if self.kind == "vote" and rounds != 1:
            raise ValueError("vote is single-round")
        if rounds < 1:
            raise ValueError("rounds must be >= 1")

    @property
    def call_budget(self):
        # n = N * R
        return self.num_agents * self.rounds


# ---------------------------------------------------------------------------
# answer extraction


_MC_PATTERNS = [
    re.compile(r"answer\s*(?:is|:)?\s*\(?([A-J])\)?(?![A-Za-z])", re.IGNORECASE),
    re.compile(r"\(([A-J])\)"),
    re.compile(r"^\s*([A-J])\s*[.)]?\s*$", re.MULTILINE),
]
_NUMBER = r"-?[\d][\d,]*(?:\.\d+)?"
_NUM_PATTERNS = [
    re.compile(rf"answer\s*(?:is|:)?\s*\$?({_NUMBER})", re.IGNORECASE),
    re.compile(rf"=\s*\$?({_NUMBER})\s*\.?\s*$", re.MULTILINE),
    re.compile(rf"({_NUMBER})\s*\.?\s*$"),
]
_PLAIN_NUMBER = re.compile(_NUMBER)


def _canonical_number(text):
    try:
        d = Decimal(text.replace(",", ""))
    except InvalidOperation:
        return None
    return format(d.normalize(), "f")


def extract_answer(raw_output, task_format="mc"):
    """Deterministically pull an answer out of free text; None when nothing matches.

    "mc" yields a single uppercase letter; "numeric" yields a canonicalized
    number (thousands separators stripped, trailing zeros dropped).
    """
    if raw_output is None:
        return None
    text = raw_output.strip()
    if not text:
        return None
    if task_format == "mc":
        for pat in _MC_PATTERNS:
            matches = pat.findall(text)
            if matches:
                return matches[-1].upper()
        return None
    if task_format == "numeric":
        for pat in _NUM_PATTERNS:
            matches = pat.findall(text)
            if matches:
                return _canonical_number(matches[-1])
        return None
    raise ValueError(f"unknown task format {task_format!r}")


def answer_matches(answer, gold):
    """Whether extract_answer's `answer` is `gold`, or the canonical number of a gold
    that is a JSON number or a plain digit string ("1,000,000"; "1e3" is taken as is).
    """
    if isinstance(gold, (int, float)) and not isinstance(gold, bool):
        gold = str(gold)
    elif not (isinstance(gold, str) and _PLAIN_NUMBER.fullmatch(gold)):
        return answer is not None and answer == gold
    return answer is not None and answer in (gold, _canonical_number(gold))


def majority_answer(answers):
    """(winner, tie_flag) by plurality over non-None answers.

    Ties break to the lexicographically smallest tied answer; an empty
    field returns (None, False).
    """
    counts = {}
    for a in answers:
        if a is not None:
            counts[a] = counts.get(a, 0) + 1
    if not counts:
        return None, False
    top = max(counts.values())
    tied = sorted(a for a, c in counts.items() if c == top)
    return tied[0], len(tied) > 1


# ---------------------------------------------------------------------------
# backends


class MockChatBackend:
    """Deterministic in-process chat backend.

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
        user = next((m["content"] for m in messages if m["role"] == "user"), "")
        system = next((m["content"] for m in messages if m["role"] == "system"), "")
        if "Other agents answered:" in user:
            block = user.split("Other agents answered:", 1)[1]
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
    """Deterministic unit-vector embeddings hashed from the text.

    `deterministic` (True) marks it in-process and reproducible, as on
    MockChatBackend.
    """

    deterministic = True

    def __init__(self, dim=8, seed=0, max_batch=None):
        self.dim = dim
        self.seed = seed
        self.max_batch = max_batch

    def embed(self, texts):
        if self.max_batch is not None and len(texts) > self.max_batch:
            raise BackendError(f"batch of {len(texts)} exceeds limit {self.max_batch}")
        # Each text draws what Generator(Philox(key=k)) draws.  Re-keying one
        # bit generator through its state setter skips the OS entropy that
        # every Philox construction reads and `key=` then discards; the
        # generator is per call, so concurrent calls share no state.
        bitgen = np.random.Philox(key=0)
        rng = np.random.Generator(bitgen)
        fresh = bitgen.state
        vectors = []
        for t in texts:
            digest = hashlib.sha256(f"{self.seed}|{t}".encode()).digest()
            fresh["state"]["key"][0] = int.from_bytes(digest[:8], "big")
            bitgen.state = fresh
            v = rng.standard_normal(self.dim)
            vectors.append((v / np.linalg.norm(v)).tolist())
        return vectors


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


class OpenAIChatBackend:
    """OpenAI-compatible /chat/completions client with retry and backoff.

    Not `deterministic`: its calls wait on the network, so `run_tasks`
    overlaps them on a thread pool, and transcripts carry the wall-clock
    timestamp and measured latencies.
    """

    deterministic = False

    def __init__(self, base_url, api_key=None, max_retries=3, backoff=1.0, timeout=60.0):
        self.client = JSONClient(base_url, api_key, max_retries, backoff, timeout)

    def chat(self, messages, model, decoding):
        data = self.client.post("/chat/completions", {
            "model": model,
            "messages": messages,
            "temperature": decoding.temperature,
            "top_p": decoding.top_p,
            "max_tokens": decoding.max_tokens,
        })
        try:
            return data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed chat response: {data}") from exc

    def close(self):
        self.client.close()


class OpenAIEmbeddingBackend:
    """OpenAI-compatible /embeddings client; not `deterministic`, as OpenAIChatBackend."""

    deterministic = False

    def __init__(self, base_url, model, api_key=None, max_retries=3, backoff=1.0,
                 timeout=60.0, max_batch=128):
        self.client = JSONClient(base_url, api_key, max_retries, backoff, timeout)
        self.model = model
        self.max_batch = max_batch

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
            raise BackendError(f"malformed embedding response: {data}") from exc
        # a bool is no index, though it is an int subclass
        if (any(type(i) is not int for i in indices)
                or sorted(indices) != list(range(len(texts)))):
            raise BackendError(f"embedding response indices {indices} are not "
                               f"0..{len(texts) - 1}, one per text")
        placed = [None] * len(texts)
        for i, v in zip(indices, vectors):
            placed[i] = v
        return placed

    def close(self):
        self.client.close()


def fetch_embeddings(texts, backend):
    """One vector per text, in the order of `texts`.

    Each distinct text goes to the backend once, in order of first
    occurrence, chunked to the backend's batch limit; a repeated text shares
    the vector object the backend returned for its first occurrence.
    Raises DimensionMismatch unless the backend returns one flat list of
    finite numbers per text, all of one width, none of norm below 1e-12;
    a bad row is named by the first position of its text.
    """
    texts = list(texts)
    first = {}  # text -> first position, in order of first occurrence
    for k, t in enumerate(texts):
        first.setdefault(t, k)
    if not first:
        raise ValueError("texts must be nonempty")
    distinct = list(first)
    limit = getattr(backend, "max_batch", None) or len(distinct)
    vectors = []
    for start in range(0, len(distinct), limit):
        vectors.extend(backend.embed(distinct[start:start + limit]))
    if len(vectors) != len(distinct):
        raise DimensionMismatch("backend returned wrong number of vectors")
    # the rules of load_embeddings_jsonl and EmbeddingSet: `run` writes no row `analyze` rejects
    for k, v in zip(first.values(), vectors):
        if not is_finite_number_list(v):
            raise DimensionMismatch(
                f"embedding row {k} is not a flat list of finite numbers: {str(v)[:80]}")
        # EmbeddingSet's norm, taken only where the first coordinate is below
        # 2 * ZERO_NORM_TOL: any other row's norm is above ZERO_NORM_TOL however it rounds
        if ((not v or abs(v[0]) < 2 * ZERO_NORM_TOL)
                and np.linalg.norm(np.array([v], dtype=float), axis=1)[0] < ZERO_NORM_TOL):
            raise DimensionMismatch(f"embedding row {k} has norm < {ZERO_NORM_TOL}")
    dims = {len(v) for v in vectors}
    if len(dims) != 1:
        raise DimensionMismatch(f"inconsistent embedding dimensions: {sorted(dims)}")
    by_text = dict(zip(distinct, vectors))
    return [by_text[t] for t in texts]


# ---------------------------------------------------------------------------
# transcripts and workflows


@dataclass
class Transcript:
    task_id: str
    question: str
    gold_answer: str
    workflow: str
    layer: str
    n_agents: int
    rounds: int
    calls: list
    final_answer: str
    tie: bool
    invalid: bool
    timestamp: str
    dataset: str = ""
    schema: int = SCHEMA_VERSION

    def to_dict(self):
        # call dicts hold only scalars, so one level of copying detaches the result
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["calls"] = [dict(c) for c in self.calls]
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d.pop("schema", None)
        return cls(**d, schema=SCHEMA_VERSION)

    @property
    def call_budget(self):
        return self.n_agents * self.rounds

    def embedding_ids(self):
        """Ids of this transcript's call vectors in `embeddings.jsonl`, in call order."""
        return [f"{self.task_id}:{c['call_index']}" for c in self.calls]


def _task_format(task):
    fmt = task.get("format")
    if fmt:
        return fmt
    return "mc" if task.get("choices") else "numeric"


def _question_text(task):
    q = task["question"]
    choices = task.get("choices")
    if choices:
        letters = [chr(ord("A") + i) for i in range(len(choices))]
        lines = [q, ""] + [f"({l}) {c}" for l, c in zip(letters, choices)]
        lines.append("")
        lines.append("State your final answer as a single letter in parentheses.")
        return "\n".join(lines)
    return q + "\n\nState your final answer as a number after 'Answer:'."


def _timestamp(backend):
    if getattr(backend, "deterministic", False):
        return FIXED_TIMESTAMP
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _issue_round(configs, prompts, plan, backend, pool):
    """Run one round of calls on `pool`; results ordered by agent index."""

    def one(i):
        cfg = configs[i]
        messages = []
        persona = plan.persona_text(cfg.persona_id)
        if persona:
            messages.append({"role": "system", "content": persona})
        messages.append({"role": "user", "content": prompts[i]})
        t0 = time.monotonic()
        try:
            raw = backend.chat(messages, cfg.model_id, cfg.decoding)
            err = None
        except Exception as exc:  # recorded, never raised: calls may fail independently
            raw, err = None, str(exc)
        latency = 0 if getattr(backend, "deterministic", False) else int(
            (time.monotonic() - t0) * 1000
        )
        return raw, err, latency

    return list(pool.map(one, range(len(configs))))


def run_workflow(task, spec: WorkflowSpec, plan: DiversityPlan, backend, pool, dataset=""):
    """Build the transcript of `spec` on `task`, issuing every call through `pool.map`.

    `pool` is an executor, or anything with its `map`, such as run_tasks'
    in-thread stand-in.

    Round 1 prompts with the question alone, so a single round is Vote's N
    independent samples.  Each later round (Debate) appends every
    previous-round output; rounds are strict barriers.  The final answer is
    the majority over last-round extracted answers.  A transcript with more
    than half its calls failed is marked invalid and carries no final answer.
    """
    n_agents, rounds = spec.num_agents, spec.rounds
    configs = plan.configs(n_agents)
    labels = [cfg.type_label for cfg in configs]
    fmt = _task_format(task)
    base_prompt = _question_text(task)

    calls, failures = [], 0
    last_round_answers = []
    prev_outputs = None
    for r in range(1, rounds + 1):
        if prev_outputs is None:
            prompts = [base_prompt] * n_agents
        else:
            block = "\n".join(
                f"Agent {j + 1}: {out}" for j, out in enumerate(prev_outputs) if out is not None
            )
            prompts = [
                base_prompt
                + "\n\nOther agents answered:\n"
                + block
                + "\n\nReconsider and state your final answer."
            ] * n_agents
        results = _issue_round(configs, prompts, plan, backend, pool)
        prev_outputs = [raw for raw, _, _ in results]
        round_answers = []
        for i, (raw, err, latency) in enumerate(results):
            ans = extract_answer(raw, fmt) if err is None else None
            calls.append(
                {
                    "call_index": (r - 1) * n_agents + i,
                    "agent_type_label": labels[i],
                    "round": r,
                    "raw_output": raw,
                    "extracted_answer": ans,
                    "latency_ms": latency,
                    "error": err,
                }
            )
            if err is None:
                round_answers.append(ans)
            else:
                failures += 1
        last_round_answers = round_answers
    invalid = failures * 2 > n_agents * rounds
    final, tie = (None, False) if invalid else majority_answer(last_round_answers)
    return Transcript(
        task_id=str(task["id"]),
        question=task["question"],
        gold_answer=task.get("answer"),
        workflow=spec.kind,
        layer=plan.layer,
        n_agents=n_agents,
        rounds=rounds,
        calls=calls,
        final_answer=final,
        tie=tie,
        invalid=invalid,
        timestamp=_timestamp(backend),
        dataset=dataset,
    )


def run_tasks(jobs, plan: DiversityPlan, backend, embedder=None, concurrency=4, dataset=""):
    """Run (WorkflowSpec, task) jobs; yield (spec, transcript, vectors, error) in job order.

    When the chat backend and the embedder (if any) are `deterministic`,
    every call is in-process work, which threads cannot overlap: the jobs
    run one by one on the caller's thread, and `concurrency` is unused.
    Otherwise one pool of `concurrency` threads issues every backend
    request, chat and embedding alike, so at most `concurrency` are in
    flight.  Up to `concurrency` jobs run ahead of the one the caller is
    consuming, each on a driver thread that runs its rounds and then embeds
    its transcript's outputs through the same pool.  `vectors` is None when
    there is no embedder, the transcript is invalid or embedding failed;
    `error` is the BackendError or DimensionMismatch of a failed embedding.
    """

    def drive(spec, task):
        t = run_workflow(task, spec, plan, backend, calls, dataset)
        if embedder is None or t.invalid:
            return spec, t, None, None
        texts = [c["raw_output"] or "" for c in t.calls]
        try:
            [vectors] = calls.map(fetch_embeddings, [texts], [embedder])
            return spec, t, vectors, None
        except (BackendError, DimensionMismatch) as exc:
            return spec, t, None, exc

    if getattr(backend, "deterministic", False) and (
            embedder is None or getattr(embedder, "deterministic", False)):
        calls = types.SimpleNamespace(map=map)  # the executor API, on this thread
        yield from itertools.starmap(drive, jobs)
        return
    from concurrent.futures import ThreadPoolExecutor

    jobs = iter(jobs)
    # drivers block on the call pool, so they never run on it
    with ThreadPoolExecutor(concurrency) as calls, ThreadPoolExecutor(concurrency) as drivers:
        window = collections.deque(
            drivers.submit(drive, *job) for job in itertools.islice(jobs, concurrency))
        while window:
            outcome = window.popleft().result()
            for job in itertools.islice(jobs, 1):
                window.append(drivers.submit(drive, *job))
            yield outcome


# ---------------------------------------------------------------------------
# persistence


def _vector_json(vector):
    """`json.dumps(vector).encode()`, byte for byte, about 6x faster.

    `vector` is a list of finite floats and ints.  orjson prints the same
    shortest digits as `float.__repr__` and differs only in layout: it writes
    magnitudes in [1e-5, 1e-4) in fixed notation (`0.00001` for `1e-05`) and
    exponents without sign or padding (`1.5e-7`, `1e16` for `1.5e-07`,
    `1e+16`).  Only the tokens holding `e` or `0.0000` are re-rendered with
    `repr`; a regex pass over every token is slower than `json.dumps`.
    """
    # imported here, so the toolkit commands never load it
    import orjson

    try:
        raw = orjson.dumps(vector)
    except orjson.JSONEncodeError:  # an int beyond 64 bits
        return json.dumps(vector).encode()
    spans = {}  # start -> end of each token to re-render
    for needle in (b"e", b"0.0000"):
        k = raw.find(needle)
        while k != -1:
            # raw[0] is "[", so a first token starts at 1
            start = max(raw.rfind(b",", 0, k), 0) + 1
            end = raw.find(b",", k)
            if end == -1:
                end = len(raw) - 1
            spans[start] = end
            k = raw.find(needle, end)
    if spans:
        parts, done = [], 0
        for start in sorted(spans):
            parts += [raw[done:start], repr(float(raw[start:spans[start]])).encode()]
            done = spans[start]
        parts.append(raw[done:])
        raw = b"".join(parts)
    return raw.replace(b",", b", ")


def embedding_rows(row_ids, vectors):
    """Yield `json.dumps({"id": row_id, "vector": vector}).encode() + b"\\n"`
    for each pair, byte for byte.

    The rows are made one at a time, so a caller that writes each as it comes
    holds one row, not the whole list of them.  A vector object that repeats
    (fetch_embeddings gives repeated texts one shared vector) is encoded once
    and its bytes reused.
    """
    encoded = {}  # id(vector) -> (vector, its JSON); holding the vector keeps its id unique
    for row_id, v in zip(row_ids, vectors):
        hit = encoded.get(id(v))
        if hit is None:
            hit = encoded[id(v)] = (v, _vector_json(v))
        yield b'{"id": %s, "vector": %s}\n' % (json.dumps(row_id).encode(), hit[1])


class TranscriptStore:
    """Append-only JSONL store of transcripts, one per line.

    The file is opened on the first append and stays open until close();
    each transcript is flushed as it is written.
    """

    def __init__(self, path):
        self.path = path
        self._fh = None

    def append(self, transcript: Transcript):
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(transcript.to_dict(), sort_keys=True) + "\n")
        self._fh.flush()

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __iter__(self):
        try:
            fh = open(self.path, encoding="utf-8")
        except FileNotFoundError:
            return iter(())
        transcripts = []
        with fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    transcripts.append(Transcript.from_dict(json.loads(line)))
                except (ValueError, TypeError) as exc:
                    raise ValueError(f"{self.path}: malformed transcript at line {lineno}: "
                                     f"{exc}") from exc
        return iter(transcripts)

    def task_ids(self):
        return {t.task_id for t in self}


def load_tasks_jsonl(path):
    """Tasks as {"id", "question", "choices"?, "answer"?} objects, one per line.

    Ids must be unique: they name the task's transcript and its embedding rows.
    The question must be a string and the choices, when given, a list: a
    string would be split into one-letter options.
    """
    tasks, seen = [], set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
                obj["id"]
                if not isinstance(obj["question"], str):
                    raise TypeError(f"question must be a string, got {obj['question']!r}")
                if obj.get("choices") is not None and not isinstance(obj["choices"], list):
                    raise TypeError(f"choices must be a list, got {obj['choices']!r}")
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"malformed task at line {lineno}: {exc}") from exc
            if str(obj["id"]) in seen:
                raise ValueError(f"task at line {lineno} repeats id {obj['id']!r}")
            seen.add(str(obj["id"]))
            tasks.append(obj)
    if not tasks:
        raise ValueError(f"dataset {path} holds no tasks")
    return tasks


def load_persona_catalog(path):
    with open(path, encoding="utf-8") as fh:
        catalog = json.load(fh)
    if not isinstance(catalog, dict) or not all(
        isinstance(v, str) for v in catalog.values()
    ):
        raise ValueError("persona catalog must map persona ids to prompt strings")
    return catalog

"""Vote and Debate workflow execution over configurable agent pools.

An agent's type is its (model, persona, decoding).  Each diversity layer
names the axes its pool varies (LAYER_AXES):

  L1  single model, default prompt (homogeneous baseline)
  L2  single model, distinct personas
  L3  models round-robin, default prompt
  L4  models and personas both varied

DiversityPlan.agents(N) walks the layer's axes once per N, building each
agent's type label, system messages, model and decoding, and shares the
agents with every transcript of that N; each round sends every agent one
user message.

Transcripts persist as append-only JSONL; masinfo.store lays out a run's
files, and masinfo.backends makes the chat and embedding backends.
"""

import collections
import itertools
import json
import math
import re
import time
import types
from dataclasses import dataclass, field, fields
from decimal import Decimal, InvalidOperation

import numpy as np

from masinfo.spectral import ZERO_NORM_TOL, is_finite_number_list

SCHEMA_VERSION = 1
FIXED_TIMESTAMP = "1970-01-01T00:00:00Z"

# The axes each diversity layer varies, (models, personas): DiversityPlan
# walks both, and an axis a layer does not vary holds one entry.
LAYER_AXES = {"L1": (False, False), "L2": (False, True), "L3": (True, False), "L4": (True, True)}
LAYERS = tuple(LAYER_AXES)

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
    error is a masinfo.backends.TransientBackendError."""


class DimensionMismatch(ValueError):
    pass


class InsufficientPool(ValueError):
    pass


def is_count(value):
    """Whether `value` is an integer >= 1; bool is an int subclass, and `true` is no count."""
    return not isinstance(value, bool) and isinstance(value, int) and value >= 1


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


# One agent of a pool as its calls need it: its type label, the system
# messages that open each of its calls (a tuple), its model and its decoding.
Agent = collections.namedtuple("Agent", "label system model decoding")


@dataclass(frozen=True)
class DiversityPlan:
    layer: str
    model_pool: tuple
    persona_pool: tuple = ()
    persona_catalog: dict = field(default_factory=lambda: dict(DEFAULT_PERSONAS))
    # agents()'s pools by N; the frozen plan fills the dict, not a field
    _agents: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def agents(self, n_agents):
        """The first n agents of the layer's walk, built on the first call for
        n and shared by every later one.  Agent i takes models[i % M] and
        personas[(i + i // lcm(M, P)) % P], an axis the layer does not vary
        being the first model or the default prompt alone; the shift, taken
        only when both axes vary, makes the first M*P agents distinct pairs.
        So agents(k) is agents(n)[:k] for k <= n.  InsufficientPool names a
        pool too small for the layer or a persona missing from the catalog."""
        pool = self._agents.get(n_agents)
        if pool is not None:
            return pool
        if self.layer not in LAYER_AXES:
            raise ValueError(f"unknown layer {self.layer!r}; expected one of {LAYERS}")
        if not is_count(n_agents):
            raise ValueError("n_agents must be >= 1")
        if not self.model_pool:
            raise InsufficientPool("model pool is empty")
        varies = LAYER_AXES[self.layer]
        models = self.model_pool if varies[0] else self.model_pool[:1]
        personas = self.persona_pool if varies[1] else (None,)
        if any(v and len(axis) < 2 for v, axis in zip(varies, (models, personas))):
            need = " and ".join(f"2 {a}" for v, a in zip(varies, ("models", "personas")) if v)
            raise InsufficientPool(f"{self.layer} needs at least {need}")
        # a walk as long as the pool shifts no agent, as a layer that varies one axis needs
        walk = math.lcm(len(models), len(personas)) if all(varies) else n_agents
        d = Decoding()
        pool = []
        for i in range(n_agents):
            model, persona = models[i % len(models)], personas[(i + i // walk) % len(personas)]
            if persona is not None and persona not in self.persona_catalog:
                raise InsufficientPool(f"persona {persona!r} missing from catalog")
            text = self.persona_catalog.get(persona)
            # the label is a pure function of (model, persona, decoding), so
            # equal tuples share a type
            label = (f"{model}|{persona or 'default'}"
                     f"|t{d.temperature}|p{d.top_p}|m{d.max_tokens}")
            pool.append(Agent(label, ({"role": "system", "content": text},) if text else (),
                              model, d))
        pool = self._agents[n_agents] = tuple(pool)
        return pool


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
# embeddings, transcripts and workflows


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
        """The transcript of a store line's object `d`.  ValueError names the
        first field run_workflow writes that is missing or not of its JSON
        type, n_agents or rounds below 1, a calls list that is not
        n_agents * rounds long, or a schema other than 1."""
        t = cls(**d)
        _check_types(vars(t), _TRANSCRIPT_TYPES)
        if t.schema != SCHEMA_VERSION:
            raise ValueError(f"schema {t.schema} is not {SCHEMA_VERSION}")
        if min(t.n_agents, t.rounds) < 1 or len(t.calls) != t.n_agents * t.rounds:
            raise ValueError(f"calls must hold n_agents * rounds calls, both >= 1: got "
                             f"{t.n_agents} * {t.rounds} and {len(t.calls)} calls")
        for i, c in enumerate(t.calls):
            _check_types(c, _CALL_TYPES, f"call {i} ")
        return t

    @property
    def call_budget(self):
        return self.n_agents * self.rounds

    def embedding_ids(self):
        """Ids of this transcript's call vectors in `embeddings.jsonl`, in call order."""
        return [f"{self.task_id}:{c['call_index']}" for c in self.calls]


# The fields run_workflow writes, each with the type()s it takes (so a JSON
# true is no int) and their name in errors.  gold_answer, the task's own, is
# not among them; dataset takes a number, as older runs wrote one.
_STR, _OPT_STR = ({str}, "a string"), ({str, type(None)}, "a string or null")
_INT, _BOOL = ({int}, "an integer"), ({bool}, "a boolean")
_TRANSCRIPT_TYPES = {"task_id": _STR, "question": _STR, "workflow": _STR, "layer": _STR,
                     "n_agents": _INT, "rounds": _INT, "calls": ({list}, "a list"),
                     "final_answer": _OPT_STR, "tie": _BOOL, "invalid": _BOOL, "timestamp": _STR,
                     "dataset": ({str, int, float}, "a string or a number"), "schema": _INT}
_CALL_TYPES = {"call_index": _INT, "agent_type_label": _STR, "round": _INT,
               "raw_output": _OPT_STR, "extracted_answer": _OPT_STR, "latency_ms": _INT,
               "error": _OPT_STR}


def _check_types(obj, types, where=""):
    """Raise ValueError unless `obj` is a dict holding each field of `types` as a type it takes."""
    if type(obj) is not dict:
        raise ValueError(f"{where}must be an object, got {repr(obj)[:80]}")
    for key, (allowed, name) in types.items():
        if key not in obj:
            raise ValueError(f"{where}has no {key!r} field")
        if type(obj[key]) not in allowed:
            raise ValueError(f"{where}{key} must be {name}, got {repr(obj[key])[:80]}")


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


def _issue_round(agents, prompt, backend, pool):
    """Run one round of calls on `pool`, each agent's system messages then
    `prompt`; (raw, error, latency_ms) ordered by agent index."""
    user = {"role": "user", "content": prompt}
    timed = not getattr(backend, "deterministic", False)

    def one(agent):
        t0 = time.monotonic()
        try:
            raw, err = backend.chat([*agent.system, user], agent.model, agent.decoding), None
        except Exception as exc:  # recorded, never raised: calls may fail independently
            raw, err = None, str(exc)
        return raw, err, int((time.monotonic() - t0) * 1000) if timed else 0

    return list(pool.map(one, agents))


def run_workflow(task, spec: WorkflowSpec, plan: DiversityPlan, backend, pool, dataset=""):
    """Build the transcript of `spec` on `task`, issuing every call through `pool.map`.

    `pool` is an executor, or anything with its `map`, such as run_tasks'
    in-thread stand-in.

    Round 1 prompts with the question alone, so a single round is Vote's N
    independent samples.  Each later round (Debate) appends every
    previous-round output; rounds are strict barriers.  The final answer is
    the majority over last-round extracted answers.  A transcript with more
    than half its calls failed is marked invalid and carries no final answer.
    Each distinct output is parsed once per transcript: clone agents and
    converged rounds repeat theirs.
    """
    n_agents, rounds = spec.num_agents, spec.rounds
    agents = plan.agents(n_agents)
    fmt = _task_format(task)
    base_prompt = _question_text(task)

    calls, failures = [], 0
    answers = {}  # raw output -> its extracted answer, for this transcript only
    last_round_answers = []
    prompt = base_prompt
    for r in range(1, rounds + 1):
        if r > 1:
            block = "\n".join(f"Agent {j + 1}: {raw}"
                              for j, (raw, _, _) in enumerate(results) if raw is not None)
            prompt = (base_prompt + "\n\nOther agents answered:\n" + block
                      + "\n\nReconsider and state your final answer.")
        results = _issue_round(agents, prompt, backend, pool)
        round_answers = []
        for i, (raw, err, latency) in enumerate(results):
            ans = None
            if err is None:
                if raw not in answers:
                    answers[raw] = extract_answer(raw, fmt)
                ans = answers[raw]
            calls.append(
                {
                    "call_index": (r - 1) * n_agents + i,
                    "agent_type_label": agents[i].label,
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
        # a dataclass instance's vars are its fields: to_dict less its copy of every call
        self._fh.write(json.dumps(vars(transcript), sort_keys=True) + "\n")
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

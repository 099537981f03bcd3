import base64
import collections
import contextlib
import dataclasses
import email.utils
import hashlib
import itertools
import json
import re
import sys
import threading
import types
from collections import Counter
from concurrent.futures import ThreadPoolExecutor, wait
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from masinfo import backends, harness
from masinfo.backends import (
    MockChatBackend,
    MockEmbeddingBackend,
    OpenAIChatBackend,
    OpenAIEmbeddingBackend,
    TransientBackendError,
)
from masinfo.cli import main
from masinfo.harness import (
    DEFAULT_PERSONAS,
    LAYERS,
    BackendError,
    Decoding,
    DimensionMismatch,
    DiversityPlan,
    InsufficientPool,
    Transcript,
    TranscriptStore,
    WorkflowSpec,
    answer_matches,
    extract_answer,
    fetch_embeddings,
    load_tasks_jsonl,
    majority_answer,
    run_tasks,
    run_workflow,
)
from masinfo.spectral import EmbeddingSet
from masinfo.store import embedding_rows


class ScriptedChatBackend:
    """Returns pre-scripted outputs in call order; raises when exhausted."""

    deterministic = True

    def __init__(self, outputs):
        self._outputs = list(outputs)
        self._lock = threading.Lock()

    def chat(self, messages, model, decoding):
        with self._lock:
            if not self._outputs:
                raise BackendError("scripted backend exhausted")
            out = self._outputs.pop(0)
        if isinstance(out, Exception):
            raise out
        return out


class FailingChatBackend:
    deterministic = True

    def chat(self, messages, model, decoding):
        raise BackendError("backend unavailable")


TASK_MC = {"id": "t1", "question": "Which?", "choices": ["first", "second", "third"], "answer": "A"}


def make_plan(layer="L1", models=("m1",), personas=()):
    return DiversityPlan(layer=layer, model_pool=tuple(models), persona_pool=tuple(personas))


def persona_of(agent):
    return agent.label.split("|")[1]


MATH, LOGIC, ENG = "mathematician", "logician", "engineer"


class TestAgentType:
    def test_type_label_equality(self):
        # agents 0 and 2 share (model, persona, decoding), agent 1 has another persona
        a, c, b = make_plan("L2", ["m1"], [MATH, LOGIC]).agents(3)
        assert a.label == b.label == make_plan("L2", ["m1"], [MATH, ENG]).agents(1)[0].label
        assert a.label != c.label

    def test_decoding_validation(self):
        with pytest.raises(ValueError):
            Decoding(temperature=-1.0)
        with pytest.raises(ValueError):
            Decoding(top_p=0.0)


class TestLayerPools:
    def test_l1_identical(self):
        pool = make_plan("L1", ["m1"]).agents(4)
        assert len(pool) == 4
        assert len({a.label for a in pool}) == 1

    def test_l2_personas_cycle(self):
        pool = make_plan("L2", ["m1"], [MATH, LOGIC, ENG]).agents(4)
        assert [persona_of(a) for a in pool] == [MATH, LOGIC, ENG, MATH]
        assert {a.model for a in pool} == {"m1"}

    def test_l3_models_round_robin(self):
        pool = make_plan("L3", ["m1", "m2", "m3"], [MATH, LOGIC]).agents(4)
        assert [a.model for a in pool] == ["m1", "m2", "m3", "m1"]
        assert all(persona_of(a) == "default" and a.system == () for a in pool)

    def test_l4_distinct_pairs_first(self):
        pool = make_plan("L4", ["m1", "m2", "m3"], [MATH, LOGIC, ENG]).agents(2)
        assert pool[0].model != pool[1].model
        assert persona_of(pool[0]) != persona_of(pool[1])

    def test_l4_covers_full_product_before_repeating(self):
        for n_models, n_personas in ((2, 2), (2, 3), (3, 3), (3, 4)):
            models = [f"m{i}" for i in range(n_models)]
            personas = list(DEFAULT_PERSONAS)[:n_personas]
            pool = make_plan("L4", models, personas).agents(n_models * n_personas)
            pairs = {(a.model, persona_of(a)) for a in pool}
            assert len(pairs) == n_models * n_personas

    def test_insufficient_pools(self):
        for layer, models, personas, message in (
                ("L2", ["m1"], [MATH], "L2 needs at least 2 personas"),
                ("L3", ["m1"], [], "L3 needs at least 2 models"),
                ("L4", ["m1", "m2"], [MATH], "L4 needs at least 2 models and 2 personas"),
                ("L1", [], [], "model pool is empty"),
                ("L2", ["m1"], [MATH, "nobody"], "persona 'nobody' missing from catalog")):
            with pytest.raises(InsufficientPool, match=f"^{message}$"):
                make_plan(layer, models, personas).agents(4)
        # a persona past the pool's first N agents is never looked up
        assert make_plan("L2", ["m1"], [MATH, "nobody"]).agents(1)
        for n in (0, -1, True):
            with pytest.raises(ValueError, match="^n_agents must be >= 1$"):
                make_plan().agents(n)

    def test_distinct_labels_nondecreasing_l1_to_l4(self):
        models = ["m1", "m2", "m3"]
        personas = [MATH, LOGIC, ENG]
        n = 8
        counts = []
        for layer in ("L1", "L2", "L3", "L4"):
            pool = make_plan(layer, models, personas).agents(n)
            counts.append(len({a.label for a in pool}))
        assert counts == sorted(counts)

    def test_plan_agents_built_once_per_n_and_outside_eq_and_repr(self):
        plan = make_plan("L4", ["m1", "m2"], [MATH, LOGIC, ENG])
        fresh = make_plan("L4", ["m1", "m2"], [MATH, LOGIC, ENG])
        agents = plan.agents(5)
        assert plan.agents(5) is agents
        assert plan == fresh and repr(plan) == repr(fresh)
        pairs = list(zip(["m1", "m2", "m1", "m2", "m1"], [MATH, LOGIC, ENG, MATH, LOGIC]))
        assert [(a.label, a.model, a.decoding) for a in agents] == [
            (f"{m}|{p}|t0.7|p0.95|m1024", m, Decoding()) for m, p in pairs]
        assert [a.system for a in agents] == [
            ({"role": "system", "content": DEFAULT_PERSONAS[p]},) for _, p in pairs]
        assert make_plan().agents(2)[0].system == ()

    # sha256 over every case of the grid below, computed at the commit before
    # the layers became one walk: each pool's (label, system, model) per
    # agent, or the message of the InsufficientPool that refused it
    POOLS_SHA256 = "cff1bbb6489f1d6081da1f730b61c17a0f0a385565378a4168f3af22c6f4eab6"

    def test_pools_and_refusals_pinned(self):
        digest, built = hashlib.sha256(), 0
        for layer, m, p in itertools.product(LAYERS, range(1, 6), range(7)):
            plan = make_plan(layer, [f"m{i}" for i in range(m)], list(DEFAULT_PERSONAS)[:p])
            for n in range(1, 40):
                try:
                    agents = [[a.label, a.system, a.model] for a in plan.agents(n)]
                    built += 1
                except InsufficientPool as exc:
                    agents = str(exc)
                digest.update(json.dumps([layer, m, p, n, agents]).encode())
        assert built == 4212
        assert digest.hexdigest() == self.POOLS_SHA256

    def test_each_pool_is_a_prefix_of_every_longer_one(self):
        # nested Vote grids reuse the first k agents of a larger N
        for layer, m, p in itertools.product(LAYERS, range(2, 6), range(2, 7)):
            models, personas = [f"m{i}" for i in range(m)], list(DEFAULT_PERSONAS)[:p]
            pool = make_plan(layer, models, personas).agents(39)
            for k in range(1, 39):
                assert make_plan(layer, models, personas).agents(k) == pool[:k], (layer, m, p, k)


class TestWorkflowSpec:
    def test_call_budget(self):
        # N * R calls in all
        for spec, calls in ((WorkflowSpec("vote", 8), 8),
                            (WorkflowSpec("debate", 2), 8),  # 4 default rounds
                            (WorkflowSpec("debate", 3, rounds=2), 6)):
            assert spec.num_agents * spec.rounds == calls

    def test_vote_single_round(self):
        with pytest.raises(ValueError):
            WorkflowSpec("vote", 4, rounds=2)


class TestExtractAnswer:
    def test_mc_parenthesized(self):
        assert extract_answer("After thinking, the answer is (B).", "mc") == "B"

    def test_mc_plain(self):
        assert extract_answer("Answer: C", "mc") == "C"

    def test_numeric_canonicalization(self):
        assert extract_answer("Answer: 1,234.50", "numeric") == "1234.5"
        assert extract_answer("The answer is 100", "numeric") == "100"
        assert extract_answer("So x = 0.250", "numeric") == "0.25"

    def test_no_match_is_none(self):
        assert extract_answer("I am not sure.", "mc") is None
        assert extract_answer("no numbers here", "numeric") is None
        assert extract_answer(None, "mc") is None

    def test_deterministic(self):
        text = "Could be (A) or (C); final answer is (C)."
        assert extract_answer(text, "mc") == extract_answer(text, "mc") == "C"

    def test_every_letter_a_loaded_task_offers_is_read(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        path.write_text(json.dumps({"id": "t", "question": "Q?",
                                    "choices": [f"c{i}" for i in range(10)]}) + "\n")
        (task,) = load_tasks_jsonl(path)
        offered = re.findall(r"^\((.)\) c", harness._question_text(task), re.MULTILINE)
        assert "".join(offered) == "ABCDEFGHIJ"
        for letter in offered:
            assert extract_answer(f"The answer is ({letter}).", "mc") == letter


class TestAnswerMatches:
    @pytest.mark.parametrize("answer, gold", [
        ("42", 42), ("42", 42.0), ("0.25", "0.250"), ("0.25", 0.25), ("1000000", "1,000,000"),
        ("-3", "-3"), ("A", "A"), ("1e3", "1e3"),
    ])
    def test_matches(self, answer, gold):
        assert answer_matches(answer, gold)

    @pytest.mark.parametrize("answer, gold", [
        (None, None), (None, "A"), (None, 42), ("B", "A"), ("43", 42),
        # only plain digit strings and JSON numbers get a canonical form
        ("1000", "1e3"), ("42", "42 apples"), ("42", " 42"), ("1", True), ("1", [1]),
    ])
    def test_does_not_match(self, answer, gold):
        assert not answer_matches(answer, gold)

    @pytest.mark.parametrize("text, gold", [
        ("The answer is 42.", 42), ("Answer: 0.25", "0.250"), ("Answer: 1000000", "1,000,000"),
        ("Answer: 0.0000001", 1e-7), ("So x = -12.50", -12.5), ("Answer: 1,000", "1000"),
    ])
    def test_extracted_number_matches_its_gold(self, text, gold):
        assert answer_matches(extract_answer(text, "numeric"), gold)


class TestMajority:
    def test_plurality(self):
        assert majority_answer(["A", "A", "B"]) == ("A", False)

    def test_tie_breaks_lexicographically(self):
        assert majority_answer(["B", "A"]) == ("A", True)

    def test_ignores_none(self):
        assert majority_answer([None, "B", None]) == ("B", False)

    def test_empty(self):
        assert majority_answer([None, None]) == (None, False)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        letters = np.array(list("ABCD"))
        for _ in range(1000):
            answers = list(letters[rng.integers(0, 4, size=rng.integers(1, 9))])
            winner, _ = majority_answer(answers)
            counts = Counter(answers)
            best = max(counts.values())
            assert winner == min(a for a, c in counts.items() if c == best)


class TestVote:
    def test_majority_final(self, pool):
        backend = ScriptedChatBackend(
            ["the answer is (A)", "the answer is (A)", "the answer is (B)"]
        )
        t = run_workflow(TASK_MC, WorkflowSpec("vote", 3), make_plan(), backend, pool)
        assert t.final_answer == "A"
        assert not t.tie
        assert len(t.calls) == 3

    @pytest.mark.parametrize("task, reply, answer", [
        ({"question": "2 + 2?", "format": "mc"}, "the answer is (B)", "B"),
        ({**TASK_MC, "format": "numeric"}, "Answer: 42", "42"),
    ], ids=["mc-without-choices", "numeric-with-choices"])
    def test_explicit_format_decides_extraction(self, pool, task, reply, answer):
        task = {"id": "t1", "answer": answer, **task}
        t = run_workflow(task, WorkflowSpec("vote", 2), make_plan(),
                         ScriptedChatBackend([reply, reply]), pool)
        assert [c["extracted_answer"] for c in t.calls] == [answer, answer]
        assert t.final_answer == answer

    def test_tie_flagged(self, pool):
        backend = ScriptedChatBackend(["(A)", "(B)"])
        t = run_workflow(TASK_MC, WorkflowSpec("vote", 2), make_plan(), backend, pool)
        assert t.final_answer == "A"
        assert t.tie

    def test_all_failures_invalid(self, pool):
        t = run_workflow(TASK_MC, WorkflowSpec("vote", 3), make_plan(), FailingChatBackend(), pool)
        assert t.invalid
        assert t.final_answer is None
        assert all(c["error"] for c in t.calls)

    def test_partial_failures_recorded_in_place(self, serial_pool):
        backend = ScriptedChatBackend(["(A)", BackendError("boom"), "(A)"])
        t = run_workflow(TASK_MC, WorkflowSpec("vote", 3), make_plan(), backend, serial_pool)
        assert not t.invalid
        assert t.final_answer == "A"
        errors = [c for c in t.calls if c["error"]]
        assert len(errors) == 1 and errors[0]["raw_output"] is None

    def test_agent_order_permutation_invariant(self, serial_pool):
        outputs = ["(A)", "(B)", "(A)", "(C)"]
        spec = WorkflowSpec("vote", 4)
        t1 = run_workflow(TASK_MC, spec, make_plan(), ScriptedChatBackend(outputs), serial_pool)
        t2 = run_workflow(
            TASK_MC, spec, make_plan(), ScriptedChatBackend(outputs[::-1]), serial_pool
        )
        assert Counter(c["extracted_answer"] for c in t1.calls) == Counter(
            c["extracted_answer"] for c in t2.calls
        )
        assert t1.final_answer == t2.final_answer

    def test_mock_determinism(self, pool):
        plan = make_plan("L2", ["m1"], ["mathematician", "logician"])
        a = run_workflow(TASK_MC, WorkflowSpec("vote", 4), plan, MockChatBackend(seed=9), pool)
        b = run_workflow(TASK_MC, WorkflowSpec("vote", 4), plan, MockChatBackend(seed=9), pool)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


class TestDebate:
    def test_majority_followers_converge(self, serial_pool):
        backend = MockChatBackend(seed=0, initial_answers=["A", "A", "B"])
        t = run_workflow(TASK_MC, WorkflowSpec("debate", 3, rounds=2), make_plan(), backend,
                         serial_pool)
        last = [c["extracted_answer"] for c in t.calls if c["round"] == 2]
        assert last == ["A", "A", "A"]
        assert t.final_answer == "A"

    def test_single_round_matches_vote(self, pool):
        plan = make_plan("L2", ["m1"], ["mathematician", "logician"])
        v = run_workflow(TASK_MC, WorkflowSpec("vote", 4), plan, MockChatBackend(seed=5), pool)
        d = run_workflow(TASK_MC, WorkflowSpec("debate", 4, rounds=1), plan,
                         MockChatBackend(seed=5), pool)
        vd, dd = v.to_dict(), d.to_dict()
        assert (vd.pop("workflow"), dd.pop("workflow")) == ("vote", "debate")
        assert vd == dd

    def test_call_budget_accounting(self, pool):
        t = run_workflow(TASK_MC, WorkflowSpec("debate", 2, rounds=4), make_plan(),
                         MockChatBackend(seed=1), pool)
        assert t.call_budget == 8
        assert len(t.calls) == 8
        assert [c["round"] for c in t.calls] == [1, 1, 2, 2, 3, 3, 4, 4]

    def test_later_rounds_see_previous_outputs(self, serial_pool):
        seen = []

        class SpyBackend(MockChatBackend):
            def chat(self, messages, model, decoding):
                seen.append(messages[-1]["content"])
                return super().chat(messages, model, decoding)

        run_workflow(TASK_MC, WorkflowSpec("debate", 2, rounds=2), make_plan(), SpyBackend(seed=2),
                     serial_pool)
        round2 = seen[2:]
        assert all("Other agents answered:" in p for p in round2)
        assert all("Agent 1:" in p and "Agent 2:" in p for p in round2)

    def test_shared_mock_matches_serial_under_thread_switching(self):
        # one mock serves every task's agents at once, as on run_tasks' thread
        # pools, with more threads than cores; its cache of the last debate
        # block may only ever recompute
        plan = make_plan("L4", ["m1", "m2", "m3"], ["mathematician", "logician", "skeptic"])
        jobs = [({**TASK_MC, "id": f"t{i}", "question": f"Which {i}?"},
                 WorkflowSpec("debate", n, rounds=4)) for i in range(40) for n in (2, 3, 5, 8, 16)]
        inline = types.SimpleNamespace(map=map)
        serial = [run_workflow(task, spec, plan, MockChatBackend(seed=4), inline).to_dict()
                  for task, spec in jobs]
        shared = MockChatBackend(seed=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as calls, ThreadPoolExecutor(8) as drivers:
                futures = [drivers.submit(run_workflow, task, spec, plan, shared, calls)
                           for task, spec in jobs * 3]
                _, pending = wait(futures, timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not pending
        assert [f.result().to_dict() for f in futures] == serial * 3


class TestEmbeddings:
    def test_mock_shapes(self):
        vectors = fetch_embeddings(["a", "b", "c"], MockEmbeddingBackend(dim=6))
        assert len(vectors) == 3
        assert all(len(v) == 6 for v in vectors)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fetch_embeddings([], MockEmbeddingBackend())

    class Recording(MockEmbeddingBackend):
        """The mock embedder with a batch limit `max_batch`, keeping every
        batch it is sent and refusing one above the limit."""

        def __init__(self, max_batch=None, **kwargs):
            super().__init__(**kwargs)
            self.max_batch = max_batch
            self.batches = []

        def embed(self, texts):
            if self.max_batch is not None and len(texts) > self.max_batch:
                raise BackendError(f"batch of {len(texts)} exceeds limit {self.max_batch}")
            self.batches.append(list(texts))
            return super().embed(texts)

    def test_chunking_matches_single_shot(self):
        texts = [f"text {i}" for i in range(10)]
        whole = fetch_embeddings(texts, self.Recording(dim=4, max_batch=None))
        chunked = fetch_embeddings(texts, self.Recording(dim=4, max_batch=3))
        assert whole == chunked

    def test_deterministic_per_text(self):
        b = MockEmbeddingBackend(dim=5, seed=3)
        assert b.embed(["x"]) == b.embed(["x"])

    # repeats of the kinds run_tasks sends: clone outputs and failed calls ("")
    REPEATED = ["b", "a", "b", "", "c", "a", "", "d", "b", "e"]

    @pytest.mark.parametrize("max_batch", [None, 1, 2, 4, 100])
    def test_each_distinct_text_sent_once_in_first_occurrence_order(self, max_batch):
        backend = self.Recording(dim=4, max_batch=max_batch)
        fetch_embeddings(self.REPEATED, backend)
        distinct = ["b", "a", "", "c", "d", "e"]
        limit = max_batch or len(distinct)
        assert backend.batches == [distinct[k:k + limit] for k in range(0, len(distinct), limit)]

    def test_repeats_share_the_vector_a_per_text_call_gives(self):
        backend = self.Recording(dim=5, seed=2, max_batch=3)
        vectors = fetch_embeddings(self.REPEATED, backend)
        assert vectors == [backend.embed([t])[0] for t in self.REPEATED]
        for t, v in zip(self.REPEATED, vectors):
            assert v is vectors[self.REPEATED.index(t)]

    @pytest.mark.parametrize("bad,message", [
        ([None, 0.5], "embedding row 2 is not a flat list"),
        ([0.0, 0.0], "embedding row 2 has norm < 1e-12"),
    ], ids=["not-numbers", "zero-norm"])
    def test_bad_repeated_text_named_by_its_first_position(self, bad, message):
        class BadForC:
            max_batch = None

            def embed(self, texts):
                return [bad if t == "c" else [0.6, 0.8] for t in texts]

        with pytest.raises(DimensionMismatch, match=message):
            fetch_embeddings(["a", "b", "c", "a", "c"], BadForC())

    def test_rows_of_repeated_vectors_equal_embedding_row(self):
        texts = self.REPEATED
        vectors = fetch_embeddings(texts, MockEmbeddingBackend(dim=32, seed=9))
        # an exponent token and an int beyond 64 bits, which take the other encoder paths
        vectors += [[1e-05, -2.5e-07, 0.5]] * 2 + [[2 ** 70, 0.5]] * 2
        ids = [f"q{k}:{k}" for k in range(len(vectors))]
        assert b"".join(embedding_rows(ids, vectors, 12)) == b"".join(
            json.dumps({"id": i, "n": 12, "vector": v}).encode() + b"\n"
            for i, v in zip(ids, vectors))
        assert b"".join(embedding_rows([], [], 1)) == b""

    @staticmethod
    def replying(indices):
        """An OpenAIEmbeddingBackend whose /embeddings reply carries `indices`."""
        backend = OpenAIEmbeddingBackend("http://127.0.0.1:9", "emb-model")
        backend.client.post = lambda path, body: {
            "data": [{"index": i, "embedding": [float(k), 1.0]} for k, i in enumerate(indices)]}
        return backend

    def test_reply_placed_by_its_indices(self):
        backend = self.replying([2, 0, 1])
        try:
            assert backend.embed(["a", "b", "c"]) == [[1.0, 1.0], [2.0, 1.0], [0.0, 1.0]]
        finally:
            backend.close()

    @pytest.mark.parametrize("texts,indices", [
        (3, [1, 1, 2]), (2, [0, 5]), (2, [0]), (2, [0, 1, 2]),
        (2, [False, True]), (2, [0, 1.0]), (2, [0, "1"]), (1, [None])],
        ids=["repeated", "out-of-range", "too-few", "too-many", "bools", "float", "string",
             "null"])
    def test_reply_indices_not_0_to_n_minus_1_raise(self, texts, indices):
        backend = self.replying(indices)
        try:
            with pytest.raises(BackendError, match=re.escape(f"indices {indices} are not")):
                backend.embed([f"t{k}" for k in range(texts)])
        finally:
            backend.close()

    @pytest.mark.parametrize("dim", [1, 3, 64, 1536])
    def test_mock_draws_what_a_fresh_philox_draws(self, dim):
        texts = [f"text {i}" for i in range(300)] + ["", "é", "text 0"]
        got = MockEmbeddingBackend(dim=dim, seed=7).embed(texts)
        for t, v in zip(texts, got):
            digest = hashlib.sha256(f"7|{t}".encode()).digest()
            key = int.from_bytes(digest[:8], "big")
            ref = np.random.Generator(np.random.Philox(key=key)).standard_normal(dim)
            assert v == (ref / np.linalg.norm(ref)).tolist()

    def test_mock_vector_of_a_repeated_text_is_a_fresh_philox_draw_and_the_callers_own(self):
        backend = MockEmbeddingBackend(dim=16, seed=7)
        digest = hashlib.sha256(b"7|again").digest()
        ref = np.random.Generator(np.random.Philox(
            key=int.from_bytes(digest[:8], "big"))).standard_normal(16)
        expected = (ref / np.linalg.norm(ref)).tolist()
        first = backend.embed(["again", "other"])[0]
        first[0] = 99.0
        first.append(1.0)
        second, third = backend.embed(["again", "again"])
        assert second == third == expected
        assert second is not third
        second.clear()
        assert backend.embed(["again"]) == [expected]


class TestWorkOncePerRun:
    def test_mock_debate_derives_each_vector_once_and_parses_each_output_once_a_transcript(
            self, monkeypatch):
        parsed, hashed = [], collections.Counter()

        def extract(raw, fmt="mc"):
            parsed.append(raw)
            return extract_answer(raw, fmt)

        def sha256(data):
            hashed[data] += 1
            return hashlib.sha256(data)

        # run_workflow parses through harness.extract_answer, the mock chat through its own
        # import, which stays; no key the mock chat hashes is "3|<an output>"
        monkeypatch.setattr(harness, "extract_answer", extract)
        monkeypatch.setattr(backends, "hashlib", types.SimpleNamespace(sha256=sha256))
        plan = make_plan("L4", ["m1", "m2", "m3"], ["mathematician", "logician", "engineer"])
        tasks = [{**TASK_MC, "id": f"t{k}", "question": f"Which {k}?"} for k in range(4)]
        jobs = [(WorkflowSpec("debate", n, rounds=3), task) for n in (2, 5, 8) for task in tasks]
        texts, calls = set(), 0
        for _, t, vectors, error in run_tasks(jobs, plan, MockChatBackend(seed=3),
                                              MockEmbeddingBackend(dim=8, seed=3)):
            outputs = [c["raw_output"] for c in t.calls]
            assert error is None and len(vectors) == len(outputs)
            assert sorted(parsed) == sorted(set(outputs))
            parsed.clear()
            texts.update(outputs)
            calls += len(outputs)
        assert len(texts) < len(jobs) < calls  # outputs repeat within and across transcripts
        keys = {f"3|{text}".encode() for text in texts}
        assert {k: hashed[k] for k in keys} == dict.fromkeys(keys, 1)


class TestEmbeddingRow:
    """Each row of embedding_rows against its definition, json.dumps, byte for byte."""

    def assert_rows_match(self, values, width=64, row_id="q0001:12"):
        for start in range(0, len(values), width):
            v = values[start:start + width]
            assert b"".join(embedding_rows([row_id], [v], 4)) == (
                json.dumps({"id": row_id, "n": 4, "vector": v}).encode() + b"\n"), v

    def test_random_bit_patterns_in_every_binade(self):
        rng = np.random.default_rng(0)
        per_binade = 64
        exponent = np.repeat(np.arange(2047, dtype=np.uint64), per_binade)  # 2047 is inf/nan
        mantissa = rng.integers(0, 2 ** 52, size=exponent.size, dtype=np.uint64)
        sign = rng.integers(0, 2, size=exponent.size, dtype=np.uint64)
        bits = (sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa
        values = bits.view(np.float64)
        assert np.isfinite(values).all()
        self.assert_rows_match(rng.permutation(values).tolist())

    @pytest.mark.parametrize("edge", [1e-5, 1e-4, 1e16, 1e17])
    def test_neighbours_of_layout_edges(self, edge):
        values = [edge]
        for direction in (np.inf, -np.inf):
            x = edge
            for _ in range(200):
                x = np.nextafter(x, direction)
                values.append(float(x))
        self.assert_rows_match(values + [-x for x in values], width=50)

    def test_zeros_subnormals_and_ints(self):
        tiny = np.finfo(float).smallest_subnormal
        values = [0.0, -0.0, float(tiny), -float(tiny), float(tiny) * 12345,
                  float(np.finfo(float).tiny), float(np.nextafter(np.finfo(float).tiny, 0)),
                  float(np.finfo(float).max), -float(np.finfo(float).max),
                  0, 1, -3, 10 ** 15, 2 ** 63 - 1, -2 ** 63, 2 ** 64 - 1]
        self.assert_rows_match(values, width=len(values))
        for v in values:
            self.assert_rows_match([v], width=1)
        # beyond 64 bits orjson refuses the int; the row is still json.dumps'
        self.assert_rows_match([2 ** 70, 0.5, -2 ** 64], width=3)

    @pytest.mark.parametrize("dim", [64, 1536])
    def test_unit_vectors(self, dim):
        rng = np.random.default_rng(dim)
        rows = rng.standard_normal((400, dim))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        self.assert_rows_match(rows.ravel().tolist(), width=dim)

    def test_ids_escaped_as_json_dumps_does(self):
        for row_id in ["t0:0", "é:1", 'q"1\\:0', "\u2028", "問題:2", "\U0001f600:3",
                       "line\nbreak:4", "nul\x00:5", "\x1f\x7f\t\r\b\f:6", "\ud800:7", ""]:
            self.assert_rows_match([0.25, 1e-05, -2.5e-07], width=3, row_id=row_id)


class TestTranscriptStore:
    def test_append_and_iterate(self, tmp_path, pool):
        store = TranscriptStore(tmp_path / "s.jsonl")
        t = run_workflow(TASK_MC, WorkflowSpec("vote", 2), make_plan(), MockChatBackend(seed=0),
                         pool)
        with contextlib.closing(store):
            store.append(t)
            store.append(t)
            loaded = list(store)  # each append is flushed, so it reads back at once
        assert len(loaded) == 2
        assert loaded[0].to_dict() == t.to_dict()
        assert loaded[0].schema == 1

    def test_malformed_line_names_file_and_line(self, tmp_path, pool):
        path = tmp_path / "s.jsonl"
        with contextlib.closing(TranscriptStore(path)) as store:
            store.append(run_workflow(TASK_MC, WorkflowSpec("vote", 2), make_plan(),
                                      MockChatBackend(seed=0), pool))
        with open(path, "a") as fh:
            fh.write("\n" + '{"task_id": "t2", "calls": [' + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: malformed transcript at line 3: "):
            list(store)

    def test_lines_are_json_dumps_byte_for_byte(self, tmp_path, pool):
        t = run_workflow(TASK_MC, WorkflowSpec("debate", 2, rounds=2), make_plan(),
                         MockChatBackend(seed=1), pool)
        t.question = "Quelle réponse? 問題 \U0001f600"
        t.calls[0]["raw_output"] = "nul\x00 \x1f\x7f\t\r\n\u2028\u2029 \"q\" \\ (A)"
        t.calls[1].update(raw_output=None, extracted_answer=None, error="lone \ud800 half")
        path = tmp_path / "s.jsonl"
        expected = []
        with contextlib.closing(TranscriptStore(path)) as store:
            for gold in (1e-05, 2 ** 70, None, ["A", 1.5, {"b": None}]):
                for dataset in ("d", 3, 2.5):
                    t.gold_answer, t.dataset = gold, dataset
                    store.append(t)
                    expected.append(json.dumps(vars(t), sort_keys=True) + "\n")
        assert path.read_bytes() == "".join(expected).encode("utf-8")

    def test_missing_file_is_empty(self, tmp_path):
        assert list(TranscriptStore(tmp_path / "none.jsonl")) == []

    def test_to_dict_matches_deep_copy(self, pool):
        t = run_workflow(TASK_MC, WorkflowSpec("debate", 3, rounds=2), make_plan(),
                         MockChatBackend(seed=4), pool)
        d = t.to_dict()
        assert d == dataclasses.asdict(t)
        assert list(d) == [f.name for f in dataclasses.fields(t)]
        d["calls"][0]["raw_output"] = "changed"
        d["calls"].append({})
        assert t.calls[0]["raw_output"] != "changed"
        assert len(t.calls) == 6


class TestTaskLoading:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        path.write_text(json.dumps(TASK_MC) + "\n")
        tasks = load_tasks_jsonl(path)
        assert tasks[0]["id"] == "t1"

    def test_malformed_names_line(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        path.write_text(json.dumps(TASK_MC) + "\n{bad\n")
        with pytest.raises(ValueError, match="line 2"):
            load_tasks_jsonl(path)

    @pytest.mark.parametrize("field,value,message", [
        ("question", 5, "question must be a string, got 5"),
        ("question", None, "question must be a string, got None"),
        ("question", ["Which?"], "question must be a string"),
        ("choices", "ab", "choices must be a list, got 'ab'"),
        ("choices", {"A": "one"}, "choices must be a list"),
    ])
    def test_question_not_string_or_choices_not_list_names_line(self, tmp_path, field, value,
                                                               message):
        path = tmp_path / "tasks.jsonl"
        path.write_text(json.dumps(TASK_MC) + "\n\n" + json.dumps({**TASK_MC, "id": "t2",
                                                                   field: value}) + "\n")
        with pytest.raises(ValueError, match=f"malformed task at line 3: {re.escape(message)}"):
            load_tasks_jsonl(path)

    def test_null_or_absent_choices_are_numeric_tasks(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        numeric = {"id": "n1", "question": "2 + 2?", "answer": 4}
        path.write_text(json.dumps(numeric) + "\n"
                        + json.dumps({**numeric, "id": "n2", "choices": None}) + "\n")
        assert [t["id"] for t in load_tasks_jsonl(path)] == ["n1", "n2"]

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_no_tasks_rejected(self, tmp_path, text):
        path = tmp_path / "tasks.jsonl"
        path.write_text(text)
        with pytest.raises(ValueError, match="holds no tasks"):
            load_tasks_jsonl(path)


# ---------------------------------------------------------------------------
# OpenAI-compatible HTTP surface


class _Handler(BaseHTTPRequestHandler):
    fail_first = 0
    fail_status = 500
    retry_after = None  # the Retry-After header of each failure, when set
    garbage_first = 0  # requests answered 200 with a body that is not JSON
    odd = None  # (marker, content): a chat whose request holds marker gets content
    hits = 0

    def log_message(self, *args):
        pass

    def do_POST(self):
        cls = type(self)
        cls.hits += 1
        if cls.fail_first > 0:
            cls.fail_first -= 1
            self.send_response(cls.fail_status)
            if cls.retry_after is not None:
                self.send_header("Retry-After", cls.retry_after)
            self.end_headers()
            return
        if cls.garbage_first > 0:
            cls.garbage_first -= 1
            data = b"<html>upstream hiccup</html>"
            self.send_response(200)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
            return
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        if self.path.endswith("/chat/completions"):
            letter = "B" if "pick second" in json.dumps(payload) else "A"
            message = {"role": "assistant", "content": f"the answer is ({letter})"}
            if cls.odd is not None and cls.odd[0] in json.dumps(payload):
                message["content"] = cls.odd[1]
            body = {"choices": [{"message": message}]}
        elif self.path.endswith("/embeddings"):
            body = {
                "data": [
                    {"index": i, "embedding": [float(i + 1), 0.0]}
                    for i in range(len(payload["input"]))
                ]
            }
        else:
            self.send_response(404)
            self.end_headers()
            return
        data = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


def serve(server):
    """Serve on a daemon thread.  A 10 ms poll lets `server.shutdown()` return
    at once, where the default 0.5 s poll cost every test half a second."""
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                     daemon=True).start()


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    serve(server)
    _Handler.fail_first, _Handler.fail_status, _Handler.hits = 0, 500, 0
    _Handler.garbage_first, _Handler.retry_after, _Handler.odd = 0, None, None
    yield f"http://127.0.0.1:{server.server_port}/v1"
    server.shutdown()
    server.server_close()


class TestHTTPBackends:
    def test_chat_round_trip(self, http_server):
        backend = OpenAIChatBackend(http_server, api_key="k", backoff=0.01)
        out = backend.chat(
            [{"role": "user", "content": "pick second"}], "model-x", Decoding()
        )
        assert "(B)" in out

    def test_chat_retries_on_server_error(self, http_server):
        _Handler.fail_first = 2
        backend = OpenAIChatBackend(http_server, backoff=0.001)
        out = backend.chat([{"role": "user", "content": "hi"}], "m", Decoding())
        assert "(A)" in out

    def test_chat_gives_up_after_retries(self, http_server):
        _Handler.fail_first = 10
        backend = OpenAIChatBackend(http_server, max_retries=2, backoff=0.001)
        with pytest.raises(BackendError):
            backend.chat([{"role": "user", "content": "hi"}], "m", Decoding())

    def test_chat_retries_429(self, http_server):
        _Handler.fail_first, _Handler.fail_status = 1, 429
        backend = OpenAIChatBackend(http_server, backoff=0)
        out = backend.chat([{"role": "user", "content": "hi"}], "m", Decoding())
        assert "(A)" in out
        assert _Handler.hits == 2

    @pytest.mark.parametrize("status,retry_after,backoff,sleeps", [
        (429, "7", 0.5, [7, 7]),
        (503, " 3 ", 1.0, [3, 3]),
        (503, "1", 4.0, [4, 8]),  # the back-off is longer
        (429, "120", 1.0, [10, 10]),  # capped at the client's timeout
        (429, "0", 1.0, [1, 2]),
        (500, "7", 1.0, [1, 2]),  # only 429 and 503 are asked to wait
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", 1.0, [1, 2]),
        (503, "soon", 1.0, [1, 2]),
        (503, "-3", 1.0, [1, 2]),
        (503, "1.5", 1.0, [1, 2]),
        (503, "\u00b2", 1.0, [1, 2]),  # "²", which str.isdigit takes
        # dates that parse but overflow datetime's ints
        (503, "Thu, 01 Jan 3000000000 00:00:00 GMT", 1.0, [1, 2]),
        (429, "Thu, 01 Jan 2026 00:00:00 +99999999999999", 1.0, [1, 2]),
        (503, "Thu, 01 Jan 2026 99999999999999999999:00:00 GMT", 1.0, [1, 2]),
    ], ids=["429-seconds", "503-padded", "backoff-longer", "capped", "zero", "500-ignored",
            "http-date-ignored", "word-ignored", "negative-ignored", "fraction-ignored",
            "superscript-ignored", "date-year-overflow", "date-zone-overflow",
            "date-hour-overflow"])
    def test_retry_after_seconds_lengthens_the_back_off(self, http_server, monkeypatch, status,
                                                        retry_after, backoff, sleeps):
        slept = []
        monkeypatch.setattr("time.sleep", slept.append)
        _Handler.fail_first, _Handler.fail_status = 2, status
        _Handler.retry_after = retry_after
        backend = OpenAIChatBackend(http_server, backoff=backoff, timeout=10.0)
        try:
            assert "(A)" in backend.chat([{"role": "user", "content": "hi"}], "m", Decoding())
        finally:
            backend.close()
        assert slept == sleeps
        assert _Handler.hits == 3

    @pytest.mark.parametrize("status,ahead,backoff,sleeps", [
        (503, 5, 1.0, [5.0, 5.0]),
        (429, 3, 1.0, [3, 3]),
        (503, 2, 4.0, [4, 8]),  # the back-off is longer
        (429, 3600, 1.0, [10, 10]),  # capped at the client's timeout
        (503, -30, 1.0, [1, 2]),  # a date in the past
        (500, 5, 1.0, [1, 2]),  # only 429 and 503 are asked to wait
    ], ids=["503-date", "429-date", "backoff-longer", "capped", "past", "500-ignored"])
    def test_retry_after_http_date_waits_until_then(self, http_server, monkeypatch, status,
                                                    ahead, backoff, sleeps):
        now = 1_760_000_000.0
        slept = []
        monkeypatch.setattr("time.sleep", slept.append)
        monkeypatch.setattr("time.time", lambda: now)
        _Handler.fail_first, _Handler.fail_status = 2, status
        _Handler.retry_after = email.utils.formatdate(now + ahead, usegmt=True)
        backend = OpenAIChatBackend(http_server, backoff=backoff, timeout=10.0)
        try:
            assert "(A)" in backend.chat([{"role": "user", "content": "hi"}], "m", Decoding())
        finally:
            backend.close()
        assert slept == sleeps
        assert _Handler.hits == 3

    def test_client_error_fails_on_first_request(self, http_server):
        _Handler.fail_first, _Handler.fail_status = 5, 400
        backend = OpenAIChatBackend(http_server, backoff=0)
        with pytest.raises(BackendError) as info:
            backend.chat([{"role": "user", "content": "hi"}], "m", Decoding())
        assert not isinstance(info.value, TransientBackendError)
        assert _Handler.hits == 1

    def test_reply_not_json_is_retried(self, http_server):
        _Handler.garbage_first = 1
        backend = OpenAIChatBackend(http_server, backoff=0)
        out = backend.chat([{"role": "user", "content": "hi"}], "m", Decoding())
        assert "(A)" in out
        assert _Handler.hits == 2

    def test_reply_never_json_raises_transient(self, http_server):
        _Handler.garbage_first = 10
        backend = OpenAIChatBackend(http_server, max_retries=2, backoff=0)
        with pytest.raises(TransientBackendError, match="malformed JSON"):
            backend.chat([{"role": "user", "content": "hi"}], "m", Decoding())
        assert _Handler.hits == 3

    @pytest.mark.parametrize("content", [["part"], 5, {"text": "(A)"}, None],
                             ids=["list", "number", "object", "null"])
    def test_chat_content_not_a_string_fails_the_call_not_the_run(self, http_server, tmp_path,
                                                                  content):
        # a null is a refusal or a tool call: no answer text, as a list of parts is none
        _Handler.odd = ("odd one", content)
        dataset = tmp_path / "tasks.jsonl"
        dataset.write_text("".join(json.dumps({**TASK_MC, "id": i, "question": q}) + "\n"
                                   for i, q in (("odd", "The odd one?"), ("plain", "Which?"))))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "dataset_path": str(dataset), "workflow": "vote", "layer": "L1",
            "n_agents_list": [2], "model_pool": ["m1"], "seed": 0,
            "output_dir": str(tmp_path / "store"),
            "backend": {"kind": "openai", "chat_url": http_server}}))
        assert main(["run", str(cfg)]) == 0
        odd, plain = TranscriptStore(tmp_path / "store" / "vote_L1_N2.jsonl")
        assert (odd.task_id, plain.task_id) == ("odd", "plain")
        assert odd.invalid and not plain.invalid
        for c in odd.calls:
            assert c["error"].startswith("malformed chat response: ")
            assert c["raw_output"] is None and c["extracted_answer"] is None
        assert [c["error"] for c in plain.calls] == [None, None]

    def test_huge_malformed_chat_reply_is_cut_to_200_characters(self, http_server):
        content = ["x" * 12000]
        _Handler.odd = ("odd one", content)
        backend = OpenAIChatBackend(http_server, backoff=0)
        try:
            with pytest.raises(BackendError) as info:
                backend.chat([{"role": "user", "content": "odd one"}], "m", Decoding())
        finally:
            backend.close()
        reply = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        assert str(info.value) == "malformed chat response: " + str(reply)[:200]

    def test_huge_malformed_embedding_reply_is_cut_to_200_characters(self):
        backend = OpenAIEmbeddingBackend("http://127.0.0.1:9", "emb-model")
        reply = {"data": [{"embedding": [0.5] * 3000}]}  # no index
        backend.client.post = lambda path, body: reply
        try:
            with pytest.raises(BackendError) as info:
                backend.embed(["a"])
        finally:
            backend.close()
        assert str(info.value) == "malformed embedding response: " + str(reply)[:200]

    def test_embeddings_order_preserved(self, http_server):
        backend = OpenAIEmbeddingBackend(http_server, "emb-model", backoff=0.01)
        vectors = fetch_embeddings(["a", "b", "c"], backend)
        assert vectors == [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]

    def test_vote_over_http(self, http_server, pool):
        backend = OpenAIChatBackend(http_server, backoff=0.01)
        t = run_workflow(TASK_MC, WorkflowSpec("vote", 3), make_plan(), backend, pool)
        assert t.final_answer == "A"
        assert not t.invalid


class _KeepAliveHandler(_Handler):
    """Promises keep-alive but closes the connection after every response."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        super().do_POST()
        self.close_connection = True


class _ClosingServer(HTTPServer):
    def __init__(self, *args):
        super().__init__(*args)
        self.closed = threading.Event()

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.set()


class _ProxyRecorder(BaseHTTPRequestHandler):
    """A forward proxy that records each request line and answers itself."""

    seen = []

    def log_message(self, *args):
        pass

    def do_POST(self):
        type(self).seen.append(
            (self.path, self.headers["Host"], self.headers["Proxy-Authorization"]))
        self.rfile.read(int(self.headers["Content-Length"]))
        data = json.dumps({"choices": [{"message": {"content": "via proxy (C)"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


@pytest.fixture
def proxy(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    server = HTTPServer(("127.0.0.1", 0), _ProxyRecorder)
    serve(server)
    _ProxyRecorder.seen = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


class TestHTTPClient:
    def test_reconnects_after_server_closes_idle_connection(self):
        server = _ClosingServer(("127.0.0.1", 0), _KeepAliveHandler)
        serve(server)
        _KeepAliveHandler.fail_first, _KeepAliveHandler.hits = 0, 0
        backend = OpenAIChatBackend(f"http://127.0.0.1:{server.server_port}/v1", max_retries=0)
        try:
            messages = [{"role": "user", "content": "hi"}]
            assert "(A)" in backend.chat(messages, "m", Decoding())
            assert server.closed.wait(5)
            # no retries left: the stale socket must be replaced, not tried
            assert "(A)" in backend.chat(messages, "m", Decoding())
        finally:
            backend.close()
            server.shutdown()
            server.server_close()
        assert _KeepAliveHandler.hits == 2

    def test_env_proxy_gets_absolute_uri(self, proxy, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", proxy.replace("http://", "http://user:p%40ss@"))
        # an address nothing listens on: only the proxy can answer
        backend = OpenAIChatBackend("http://127.0.0.2:9/v1", max_retries=0)
        out = backend.chat([{"role": "user", "content": "hi"}], "m", Decoding())
        assert out == "via proxy (C)"
        creds = "Basic " + base64.b64encode(b"user:p@ss").decode()
        assert _ProxyRecorder.seen == [
            ("http://127.0.0.2:9/v1/chat/completions", "127.0.0.2:9", creds)]

    def test_no_proxy_bypasses_proxy(self, proxy, http_server, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", proxy)
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        backend = OpenAIChatBackend(http_server, max_retries=0)
        assert "(A)" in backend.chat([{"role": "user", "content": "hi"}], "m", Decoding())
        assert _ProxyRecorder.seen == []
        assert _Handler.hits == 1


class TestDimensionChecks:
    def test_inconsistent_dimensions_raise(self):
        class BadBackend:
            max_batch = None

            def embed(self, texts, model=None):
                return [[1.0], [1.0, 2.0]][: len(texts)]

        with pytest.raises(DimensionMismatch):
            fetch_embeddings(["a", "b"], BadBackend())

    @pytest.mark.parametrize("vector", [
        [None, 0.5], ["0.5", 0.5], [[0.5], 0.5], [True, 0.5], [float("nan"), 0.5],
        [float("inf"), 0.5], [10 ** 400, 0.5], (0.5, 0.5), None,
    ], ids=["null", "string", "nested", "bool", "nan", "inf", "int-overflow", "tuple", "none"])
    def test_vector_not_finite_numbers_raises_naming_row(self, vector):
        class BadBackend:
            max_batch = None

            def embed(self, texts, model=None):
                return [[0.5, 0.5], vector]

        with pytest.raises(DimensionMismatch, match="embedding row 1 is not a flat list"):
            fetch_embeddings(["a", "b"], BadBackend())

    @pytest.mark.parametrize("vector", [[0.0, 0.0], [0, 0], [1e-13, 0.0], [-5e-13, 5e-13], []])
    def test_zero_norm_row_raises_naming_row(self, vector):
        # EmbeddingSet's own rule, so a row passes here exactly when analyze accepts it
        class ZeroBackend:
            max_batch = None

            def embed(self, texts):
                return [[0.6, 0.8], vector, [1.0, 0.0]]

        with pytest.raises(DimensionMismatch, match="embedding row 1 has norm < 1e-12"):
            fetch_embeddings(["a", "b", "c"], ZeroBackend())

    @pytest.mark.parametrize("vector", [[1.5e-12, 1.5e-12], [-1.2e-12, 0.0], [1e-12, 1e-12, 1e-12]])
    def test_small_rows_pass_when_embedding_set_takes_them(self, vector):
        class SmallBackend:
            max_batch = None

            def embed(self, texts):
                return [vector, [0.5] * len(vector)]

        assert fetch_embeddings(["a", "b"], SmallBackend()) == [vector, [0.5] * len(vector)]
        assert EmbeddingSet([vector]).n == 1

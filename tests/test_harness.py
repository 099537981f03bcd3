import base64
import dataclasses
import hashlib
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

from masinfo.harness import (
    AgentConfig,
    BackendError,
    Decoding,
    DimensionMismatch,
    DiversityPlan,
    InsufficientPool,
    MockChatBackend,
    MockEmbeddingBackend,
    OpenAIChatBackend,
    OpenAIEmbeddingBackend,
    Transcript,
    TransientBackendError,
    TranscriptStore,
    WorkflowSpec,
    build_layer_pool,
    embedding_row,
    extract_answer,
    fetch_embeddings,
    load_tasks_jsonl,
    majority_answer,
    run_workflow,
)


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


class TestAgentConfig:
    def test_type_label_equality(self):
        a = AgentConfig("m1", "p1", Decoding(0.7, 0.95, 1024))
        b = AgentConfig("m1", "p1", Decoding(0.7, 0.95, 1024))
        c = AgentConfig("m1", "p2", Decoding(0.7, 0.95, 1024))
        assert a.type_label == b.type_label
        assert a.type_label != c.type_label

    def test_decoding_validation(self):
        with pytest.raises(ValueError):
            Decoding(temperature=-1.0)
        with pytest.raises(ValueError):
            Decoding(top_p=0.0)


class TestLayerPools:
    def test_l1_identical(self):
        pool = build_layer_pool("L1", ["m1"], [], 4)
        assert len(pool) == 4
        assert len({c.type_label for c in pool}) == 1

    def test_l2_personas_cycle(self):
        pool = build_layer_pool("L2", ["m1"], ["p1", "p2", "p3"], 4)
        assert [c.persona_id for c in pool] == ["p1", "p2", "p3", "p1"]
        assert {c.model_id for c in pool} == {"m1"}

    def test_l3_models_round_robin(self):
        pool = build_layer_pool("L3", ["m1", "m2", "m3"], [], 4)
        assert [c.model_id for c in pool] == ["m1", "m2", "m3", "m1"]
        assert all(c.persona_id is None for c in pool)

    def test_l4_distinct_pairs_first(self):
        pool = build_layer_pool("L4", ["m1", "m2", "m3"], ["p1", "p2", "p3"], 2)
        assert pool[0].model_id != pool[1].model_id
        assert pool[0].persona_id != pool[1].persona_id

    def test_l4_covers_full_product_before_repeating(self):
        for n_models, n_personas in ((2, 2), (2, 3), (3, 3), (3, 4)):
            models = [f"m{i}" for i in range(n_models)]
            personas = [f"p{i}" for i in range(n_personas)]
            pool = build_layer_pool("L4", models, personas, n_models * n_personas)
            pairs = {(c.model_id, c.persona_id) for c in pool}
            assert len(pairs) == n_models * n_personas

    def test_insufficient_pools(self):
        with pytest.raises(InsufficientPool):
            build_layer_pool("L2", ["m1"], ["only"], 4)
        with pytest.raises(InsufficientPool):
            build_layer_pool("L3", ["m1"], [], 4)
        with pytest.raises(InsufficientPool):
            build_layer_pool("L4", ["m1", "m2"], ["p1"], 4)

    def test_distinct_labels_nondecreasing_l1_to_l4(self):
        models = ["m1", "m2", "m3"]
        personas = ["p1", "p2", "p3"]
        n = 8
        counts = []
        for layer in ("L1", "L2", "L3", "L4"):
            pool = build_layer_pool(layer, models, personas, n)
            counts.append(len({c.type_label for c in pool}))
        assert counts == sorted(counts)


class TestWorkflowSpec:
    def test_call_budget(self):
        assert WorkflowSpec("vote", 8).call_budget == 8
        assert WorkflowSpec("debate", 2).call_budget == 8  # 4 default rounds
        assert WorkflowSpec("debate", 3, rounds=2).call_budget == 6

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

    def test_chunking_matches_single_shot(self):
        texts = [f"text {i}" for i in range(10)]
        whole = fetch_embeddings(texts, MockEmbeddingBackend(dim=4, max_batch=None))
        chunked = fetch_embeddings(texts, MockEmbeddingBackend(dim=4, max_batch=3))
        assert whole == chunked

    def test_deterministic_per_text(self):
        b = MockEmbeddingBackend(dim=5, seed=3)
        assert b.embed(["x"]) == b.embed(["x"])

    @pytest.mark.parametrize("dim", [1, 3, 64, 1536])
    def test_mock_draws_what_a_fresh_philox_draws(self, dim):
        texts = [f"text {i}" for i in range(300)] + ["", "é", "text 0"]
        got = MockEmbeddingBackend(dim=dim, seed=7).embed(texts)
        for t, v in zip(texts, got):
            digest = hashlib.sha256(f"7|{t}".encode()).digest()
            key = int.from_bytes(digest[:8], "big")
            ref = np.random.Generator(np.random.Philox(key=key)).standard_normal(dim)
            assert v == (ref / np.linalg.norm(ref)).tolist()


class TestEmbeddingRow:
    """embedding_row against its definition, json.dumps, byte for byte."""

    def assert_rows_match(self, values, width=64, row_id="q0001:12"):
        for start in range(0, len(values), width):
            v = values[start:start + width]
            assert embedding_row(row_id, v) == json.dumps({"id": row_id, "vector": v}), v

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
        for row_id in ["t0:0", "é:1", 'q"1\\:0', "\u2028"]:
            self.assert_rows_match([0.25, 1e-05, -2.5e-07], width=3, row_id=row_id)


class TestTranscriptStore:
    def test_append_and_iterate(self, tmp_path, pool):
        store = TranscriptStore(tmp_path / "s.jsonl")
        t = run_workflow(TASK_MC, WorkflowSpec("vote", 2), make_plan(), MockChatBackend(seed=0),
                         pool)
        store.append(t)
        store.append(t)
        loaded = list(store)
        assert len(loaded) == 2
        assert loaded[0].to_dict() == t.to_dict()
        assert loaded[0].schema == 1

    def test_malformed_line_names_file_and_line(self, tmp_path, pool):
        path = tmp_path / "s.jsonl"
        store = TranscriptStore(path)
        store.append(run_workflow(TASK_MC, WorkflowSpec("vote", 2), make_plan(),
                                  MockChatBackend(seed=0), pool))
        with open(path, "a") as fh:
            fh.write("\n" + '{"task_id": "t2", "calls": [' + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: malformed transcript at line 3: "):
            list(store)

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

    def test_task_ids(self, tmp_path, pool):
        store = TranscriptStore(tmp_path / "s.jsonl")
        store.append(run_workflow(TASK_MC, WorkflowSpec("vote", 2), make_plan(),
                                  MockChatBackend(seed=0), pool))
        assert store.task_ids() == {"t1"}


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


# ---------------------------------------------------------------------------
# OpenAI-compatible HTTP surface


class _Handler(BaseHTTPRequestHandler):
    fail_first = 0
    fail_status = 500
    garbage_first = 0  # requests answered 200 with a body that is not JSON
    hits = 0

    def log_message(self, *args):
        pass

    def do_POST(self):
        cls = type(self)
        cls.hits += 1
        if cls.fail_first > 0:
            cls.fail_first -= 1
            self.send_response(cls.fail_status)
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
            body = {
                "choices": [
                    {"message": {"role": "assistant", "content": f"the answer is ({letter})"}}
                ]
            }
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


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.fail_first, _Handler.fail_status, _Handler.hits = 0, 500, 0
    _Handler.garbage_first = 0
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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _ProxyRecorder.seen = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


class TestHTTPClient:
    def test_reconnects_after_server_closes_idle_connection(self):
        server = _ClosingServer(("127.0.0.1", 0), _KeepAliveHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
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

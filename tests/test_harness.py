import base64
import dataclasses
import json
import re
import threading
from collections import Counter
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

import json
import os
import subprocess
import sys
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

import masinfo
from masinfo import backends
from masinfo.backends import MockEmbeddingBackend
from masinfo.harness import Decoding
from test_harness import serve


class TestBuild:
    def test_mock_defaults_to_width_8(self):
        chat, embed = backends.build({"kind": "mock"}, 3)
        assert chat.deterministic and embed.deterministic
        assert [len(v) for v in embed.embed(["a", "b"])] == [8, 8]

    def test_kind_defaults_to_mock(self):
        chat, embed = backends.build({}, 3)
        assert type(chat) is backends.MockChatBackend
        assert embed.embed(["a"]) == MockEmbeddingBackend(8, 3).embed(["a"])

    def test_mock_honours_dim_and_seed(self):
        chat, embed = backends.build({"kind": "mock", "dim": 16}, 5)
        assert embed.embed(["a", "b"]) == MockEmbeddingBackend(dim=16, seed=5).embed(["a", "b"])
        assert embed.embed(["a"]) != MockEmbeddingBackend(dim=16, seed=6).embed(["a"])
        messages = [{"role": "user", "content": "Which?"}]
        assert chat.chat(messages, "m", Decoding()) == \
            backends.MockChatBackend(seed=5).chat(messages, "m", Decoding())

    def test_openai_without_embed_url_has_no_embedder(self):
        chat, embed = backends.build({"kind": "openai", "chat_url": "http://127.0.0.1:9/v1"}, 0)
        try:
            assert type(chat) is backends.OpenAIChatBackend and not chat.deterministic
            assert embed is None
        finally:
            chat.close()

    def test_openai_embedder_batches_128_of_its_model(self):
        chat, embed = backends.build({"kind": "openai", "chat_url": "http://127.0.0.1:9/v1",
                                      "embed_url": "http://127.0.0.1:9/v1",
                                      "embed_model": "emb"}, 0)
        try:
            assert type(embed) is backends.OpenAIEmbeddingBackend and not embed.deterministic
            assert (embed.model, embed.max_batch) == ("emb", 128)
        finally:
            chat.close()
            embed.close()


class _KeyRecorder(BaseHTTPRequestHandler):
    """Answers every chat and embedding request, recording its Authorization header."""

    seen = []

    def log_message(self, *args):
        pass

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen.append(self.headers.get("Authorization"))
        if self.path.endswith("/embeddings"):
            body = {"data": [{"index": i, "embedding": [1.0, 0.0]}
                             for i in range(len(payload["input"]))]}
        else:
            body = {"choices": [{"message": {"content": "the answer is (A)"}}]}
        data = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


@pytest.fixture
def key_server():
    server = HTTPServer(("127.0.0.1", 0), _KeyRecorder)
    serve(server)
    _KeyRecorder.seen = []
    yield f"http://127.0.0.1:{server.server_port}/v1"
    server.shutdown()
    server.server_close()


@pytest.mark.parametrize("key, header", [("s3cret", "Bearer s3cret"), (None, None)],
                         ids=["set", "unset"])
def test_api_key_comes_from_the_named_environment_variable(key_server, monkeypatch, key,
                                                           header):
    monkeypatch.delenv("MASINFO_TEST_KEY", raising=False)
    if key is not None:
        monkeypatch.setenv("MASINFO_TEST_KEY", key)
    chat, embed = backends.build({"kind": "openai", "chat_url": key_server,
                                  "embed_url": key_server, "api_key_env": "MASINFO_TEST_KEY"}, 0)
    try:
        chat.chat([{"role": "user", "content": "hi"}], "m", Decoding())
        embed.embed(["hi"])
    finally:
        chat.close()
        embed.close()
    assert _KeyRecorder.seen == [header, header]


@pytest.mark.parametrize("dim", [0, -1, "8", True, 2.0], ids=["zero", "negative", "string",
                                                              "bool", "float"])
def test_mock_embedder_refuses_a_bad_dim_when_made(dim):
    with pytest.raises(ValueError, match=f"backend dim must be an integer >= 1, got {dim!r}"):
        MockEmbeddingBackend(dim=dim)


def test_harness_does_not_import_backends():
    # backends imports harness; an import back would be a cycle
    src = os.path.dirname(os.path.dirname(masinfo.__file__))
    script = ("import sys, masinfo.harness\n"
              "print('masinfo.backends' in sys.modules)\n"
              "import masinfo.backends\n")
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

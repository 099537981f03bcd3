import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import masinfo
from masinfo import cli
from masinfo.cli import main
from masinfo.harness import (
    BackendError,
    MockChatBackend,
    MockEmbeddingBackend,
    TranscriptStore,
)
from masinfo.info_theory import bsc_views_joint


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    if capsys is None:
        return code, None
    return code, capsys.readouterr()


class TestKstar:
    def test_orthonormal_rows(self, tmp_path, capsys):
        path = tmp_path / "emb.jsonl"
        write_jsonl(path, [{"id": str(i), "vector": row} for i, row in enumerate(np.eye(3).tolist())])
        code, out = run_cli("kstar", str(path), capsys=capsys)
        assert code == 0
        result = json.loads(out.out)
        assert abs(result["k_star"] - 3.0) < 1e-6

    def test_duplicates_collapse_to_one(self, tmp_path, capsys):
        path = tmp_path / "emb.jsonl"
        write_jsonl(path, [{"id": str(i), "vector": [1.0, 0.0]} for i in range(4)])
        code, out = run_cli("kstar", str(path), capsys=capsys)
        assert code == 0
        assert abs(json.loads(out.out)["k_star"] - 1.0) < 1e-6

    def test_mask_adds_conditioned_columns(self, tmp_path, capsys):
        path = tmp_path / "emb.jsonl"
        write_jsonl(path, [{"id": str(i), "vector": row} for i, row in enumerate(np.eye(3).tolist())])
        mask = tmp_path / "mask.json"
        mask.write_text("[true, true, false]")
        code, out = run_cli("kstar", str(path), "--mask", str(mask), capsys=capsys)
        assert code == 0
        result = json.loads(out.out)
        assert abs(result["k_star_c"] - 2.0) < 1e-6
        assert abs(result["k_star_w"] - 1.0) < 1e-6

    @pytest.mark.parametrize("mask", ['["true", "true", "false"]', "[1, 1, 0]"],
                             ids=["strings", "integers"])
    def test_mask_of_non_booleans_exits_2(self, tmp_path, capsys, mask):
        # bool("false") is True, so reading these as truth values misreports K*_c/K*_w
        path = tmp_path / "emb.jsonl"
        write_jsonl(path, [{"id": str(i), "vector": row} for i, row in enumerate(np.eye(3).tolist())])
        mask_path = tmp_path / "mask.json"
        mask_path.write_text(mask)
        code, out = run_cli("kstar", str(path), "--mask", str(mask_path), capsys=capsys)
        assert code == 2
        assert "booleans" in out.err

    def test_malformed_row_exits_2_with_line(self, tmp_path, capsys):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "vector": [1.0]}\nnope\n')
        code, out = run_cli("kstar", str(path), capsys=capsys)
        assert code == 2
        assert "line 2" in out.err

    @pytest.mark.parametrize("vector", [
        "[1.0, null]", "[NaN, 1.0]", "[1.0, Infinity]", "[1e400, 1.0]", "[[1.0, 0.0]]",
    ], ids=["null", "nan", "infinity", "overflow", "nested"])
    def test_non_finite_row_exits_2_with_line(self, tmp_path, capsys, vector):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "vector": [1.0, 0.0]}\n{"id": "b", "vector": %s}\n' % vector)
        code, out = run_cli("kstar", str(path), capsys=capsys)
        assert code == 2
        assert "line 2" in out.err

    def test_zero_norm_row_exits_2_naming_id_and_line(self, tmp_path, capsys):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "vector": [1.0, 0.0]}\n\n{"id": "b", "vector": [0, 0]}\n')
        code, out = run_cli("kstar", str(path), capsys=capsys)
        assert code == 2
        assert "error: embedding b at line 3 has norm < 1e-12" in out.err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, out = run_cli("kstar", str(tmp_path / "none.jsonl"), capsys=capsys)
        assert code == 2

    def test_output_file(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_jsonl(path, [{"id": "a", "vector": [1.0, 0.0]}])
        out = tmp_path / "result.json"
        code, _ = run_cli("kstar", str(path), "--output", str(out))
        assert code == 0
        assert abs(json.loads(out.read_text())["k_star"] - 1.0) < 1e-9


class TestSimulate:
    def test_csv_shape_and_k_zero(self, tmp_path):
        out = tmp_path / "curve.csv"
        code, _ = run_cli(
            "simulate", "--alpha", "0.3", "--k-max", "8", "--trials", "2000",
            "--seed", "1", "--output", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,mean_residual_fraction,stderr,geo_bound,exp_bound"
        assert len(lines) == 10  # header + K = 0..8
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 1.0

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--alpha", "0.25", "--k-max", "5", "--trials", "5000", "--seed", "7"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path, capsys):
        code, out = run_cli(
            "simulate", "--alpha", "0.5", "--k-max", "2", "--trials", "100",
            "--format", "json", capsys=capsys,
        )
        assert code == 0
        data = json.loads(out.out)
        assert data["mean_residual_fraction"][0] == 1.0

    def test_alpha_out_of_range_exits_2(self, capsys):
        code, out = run_cli("simulate", "--alpha", "1.5", capsys=capsys)
        assert code == 2
        assert "error" in out.err

    def test_zero_bits_exits_2(self, capsys):
        code, out = run_cli("simulate", "--alpha", "0.3", "--m", "0", capsys=capsys)
        assert code == 2
        assert "num_bits" in out.err

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_seed_out_of_range_exits_2(self, capsys, seed):
        code, out = run_cli("simulate", "--alpha", "0.3", "--trials", "10", "--seed", seed, capsys=capsys)
        assert code == 2
        assert "seed" in out.err

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2


class TestBounds:
    def test_bsc_report(self, tmp_path, capsys):
        # uniform bit Y observed through one BSC(0.1) view, X trivial
        eps = 0.1
        probs = []
        for x in range(1):
            for y in range(2):
                for z in range(2):
                    probs.append(0.5 * ((1 - eps) if z == y else eps))
        joint = tmp_path / "joint.json"
        joint.write_text(json.dumps({"alphabets": [1, 2, 2], "probs": probs}))
        code, out = run_cli("bounds", str(joint), capsys=capsys)
        assert code == 0
        report = json.loads(out.out)
        assert abs(report["h_y_given_x"] - 1.0) < 1e-9
        assert abs(report["i_mas"] - 0.531004) < 1e-6
        assert report["i_mas"] <= report["h_y_given_x"] + 1e-9

    @pytest.mark.parametrize("calls", ["-1", "0", "5"])
    def test_calls_out_of_range_exits_2(self, tmp_path, capsys, calls):
        joint = tmp_path / "joint.json"
        joint.write_text(bsc_views_joint(0.1, 3).to_json())
        code, out = run_cli("bounds", str(joint), "--calls", calls, capsys=capsys)
        assert code == 2
        assert "1..3" in out.err
        assert out.out == ""

    def test_bad_joint_exits_2(self, tmp_path, capsys):
        joint = tmp_path / "joint.json"
        joint.write_text(json.dumps({"alphabets": [2, 2], "probs": [0.3, 0.3, 0.3, 0.3]}))
        code, _ = run_cli("bounds", str(joint), capsys=capsys)
        assert code == 2


class TestFitAlpha:
    def test_round_trip_with_header(self, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        rows = ["k,fraction"] + [f"{k},{1.0 - math.exp(-0.3 * k)}" for k in range(1, 9)]
        curve.write_text("\n".join(rows) + "\n")
        code, out = run_cli("fit-alpha", str(curve), capsys=capsys)
        assert code == 0
        result = json.loads(out.out)
        assert abs(result["alpha_hat"] - 0.3) < 1e-6
        assert result["rss"] < 1e-12

    def test_flat_curve_exits_2(self, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        curve.write_text("1,0.0\n2,0.0\n3,0.0\n")
        code, _ = run_cli("fit-alpha", str(curve), capsys=capsys)
        assert code == 2

    @pytest.mark.parametrize("bad", ["3,oops", "3"], ids=["not-a-number", "one-column"])
    def test_bad_row_after_first_exits_2_with_line(self, tmp_path, capsys, bad):
        # only the first nonblank row may be a header; a bad row later is no header
        curve = tmp_path / "curve.csv"
        rows = ["k,fraction", "", "1,0.26", "2,0.45", bad, "4,0.70", "5,0.78"]
        curve.write_text("\n".join(rows) + "\n")
        code, out = run_cli("fit-alpha", str(curve), capsys=capsys)
        assert code == 2
        assert "line 5" in out.err

    @pytest.mark.parametrize("bad", ["2,nan", "inf,0.45"], ids=["nan-fraction", "inf-k"])
    def test_non_finite_row_exits_2(self, tmp_path, capsys, bad):
        # json.dumps would write the NaN rss of such a fit as invalid JSON
        curve = tmp_path / "curve.csv"
        curve.write_text("\n".join(["k,fraction", "1,0.26", bad, "3,0.60"]) + "\n")
        code, out = run_cli("fit-alpha", str(curve), capsys=capsys)
        assert code == 2
        assert "must be finite" in out.err
        assert out.out == ""


def test_cli_import_leaves_out_requests():
    src = os.path.dirname(os.path.dirname(masinfo.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, masinfo.cli; print('requests' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_toolkit_leaves_out_orjson(tmp_path):
    # orjson is imported only where bulk JSON is decoded or embedding rows encoded:
    # run, analyze, kstar
    curve = tmp_path / "curve.csv"
    curve.write_text("".join(f"{k},{1.0 - math.exp(-0.3 * k)}\n" for k in range(1, 9)))
    joint = tmp_path / "joint.json"
    joint.write_text(bsc_views_joint(0.1, 3).to_json())
    src = os.path.dirname(os.path.dirname(masinfo.__file__))
    script = (
        "import os, sys\n"
        "from masinfo.cli import main\n"
        "assert main(['simulate', '--alpha', '0.2', '--trials', '10', '--output', os.devnull]) == 0\n"
        f"assert main(['bounds', {str(joint)!r}, '--output', os.devnull]) == 0\n"
        f"assert main(['fit-alpha', {str(curve)!r}, '--output', os.devnull]) == 0\n"
        "print('orjson' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def make_dataset(tmp_path, n_tasks=3):
    path = tmp_path / "tasks.jsonl"
    write_jsonl(path, [
        {"id": f"t{i}", "question": f"Question {i}?",
         "choices": ["one", "two", "three"], "answer": "A"}
        for i in range(n_tasks)
    ])
    return path


def base_config(tmp_path, n_tasks=3, **overrides):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = {
        "dataset_path": str(make_dataset(tmp_path, n_tasks)),
        "workflow": "vote",
        "layer": "L1",
        "n_agents_list": [2, 4],
        "model_pool": ["m1"],
        "seed": 11,
        "output_dir": str(tmp_path / "store"),
        "backend": {"kind": "mock", "dim": 4},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestRun:
    def test_mock_vote_call_accounting(self, tmp_path):
        cfg_path, cfg = base_config(tmp_path)
        assert main(["run", str(cfg_path)]) == 0
        store_dir = tmp_path / "store"
        for n in (2, 4):
            store = TranscriptStore(store_dir / f"vote_L1_N{n}.jsonl")
            ts = list(store)
            assert len(ts) == 3
            assert all(len(t.calls) == n for t in ts)
        manifest = json.loads((store_dir / "manifest.json").read_text())
        assert manifest["files"] == ["vote_L1_N2.jsonl", "vote_L1_N4.jsonl"]
        emb_lines = (store_dir / "embeddings.jsonl").read_text().strip().splitlines()
        assert len(emb_lines) == 3 * (2 + 4)

    def test_invalid_layer_exits_2(self, tmp_path, capsys):
        cfg_path, _ = base_config(tmp_path, layer="L9")
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert code == 2
        assert "layer" in out.err

    def test_missing_field_exits_2(self, tmp_path, capsys):
        cfg_path, cfg = base_config(tmp_path)
        del cfg["seed"]
        cfg_path.write_text(json.dumps(cfg))
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert code == 2
        assert "seed" in out.err

    def test_resume_skips_done_tasks(self, tmp_path):
        cfg_path, cfg = base_config(tmp_path, n_agents_list=[2])
        assert main(["run", str(cfg_path)]) == 0
        store_path = tmp_path / "store" / "vote_L1_N2.jsonl"
        before = store_path.read_text()
        assert main(["run", str(cfg_path)]) == 0
        assert store_path.read_text() == before  # nothing re-run, nothing appended

    def test_resume_partial_store_fills_gaps(self, tmp_path):
        cfg_path, cfg = base_config(tmp_path, n_agents_list=[2])
        assert main(["run", str(cfg_path)]) == 0
        store_path = tmp_path / "store" / "vote_L1_N2.jsonl"
        lines = store_path.read_text().strip().splitlines()
        store_path.write_text(lines[0] + "\n")  # drop t1, t2
        assert main(["run", str(cfg_path)]) == 0
        ids = [json.loads(l)["task_id"] for l in store_path.read_text().strip().splitlines()]
        assert sorted(ids) == ["t0", "t1", "t2"]

    def test_resume_on_malformed_store_exits_2_before_any_call(self, tmp_path, capsys):
        cfg_path, _ = base_config(tmp_path, n_agents_list=[2])
        assert main(["run", str(cfg_path)]) == 0
        store = tmp_path / "store"
        lines = (store / "vote_L1_N2.jsonl").read_text().splitlines()
        (store / "vote_L1_N2.jsonl").write_text(lines[0] + "\n" + lines[1][:40] + "\n")
        before = store_bytes(store)
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert code == 2
        assert "vote_L1_N2.jsonl: malformed transcript at line 2" in out.err
        assert store_bytes(store) == before

    def test_resume_refuses_config_mismatch(self, tmp_path, capsys):
        cfg_path, cfg = base_config(tmp_path, n_agents_list=[2])
        assert main(["run", str(cfg_path)]) == 0
        cfg["seed"] = 99
        cfg_path.write_text(json.dumps(cfg))
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert code == 2
        assert "refused" in out.err

    @pytest.mark.parametrize("manifest", ['{"schema": 1, "config_', "[1]"],
                             ids=["torn", "not-object"])
    def test_bad_manifest_exits_2_naming_it(self, tmp_path, capsys, manifest):
        cfg_path, _ = base_config(tmp_path, n_agents_list=[2])
        assert main(["run", str(cfg_path)]) == 0
        store = tmp_path / "store"
        assert sorted(os.listdir(store)) == ["embeddings.jsonl", "manifest.json",
                                             "vote_L1_N2.jsonl"]
        (store / "manifest.json").write_text(manifest)
        before = store_bytes(store)
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert code == 2
        assert f"{store / 'manifest.json'} is not a JSON object" in out.err
        assert store_bytes(store) == before
        assert (store / "manifest.json").read_text() == manifest

    def test_vote_with_rounds_exits_2(self, tmp_path, capsys):
        cfg_path, _ = base_config(tmp_path, rounds=3)
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert code == 2
        assert not (tmp_path / "store").exists()

    def test_unreachable_backend_exits_3(self, tmp_path, capsys, monkeypatch):
        # the retries still run; only their back-off sleeps are skipped
        monkeypatch.setattr("time.sleep", lambda seconds: None)
        cfg_path, _ = base_config(
            tmp_path,
            n_agents_list=[2],
            backend={"kind": "openai", "chat_url": "http://127.0.0.1:9/v1"},
        )
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert code == 3

    # sha256 of each file a parent-commit `run` wrote on these configs; any
    # change to the transcript or vector bytes shows here
    GOLDEN = {
        "vote": {
            "embeddings.jsonl": "597b7f7780af2d749d8fba346f62aacdf50a2be10720e906bd875974d40d03d6",
            "vote_L4_N2.jsonl": "e7999e53f16f15e6a2c7e851b99c6faa18e5a7a64711b9a2e5a4b86335ff0411",
            "vote_L4_N4.jsonl": "2b0413d0a801724911c1904bc12704c8343a5a4c5daced5ac9ff423dd8353dfc",
            "vote_L4_N8.jsonl": "b3e8b5a39ac34247bed3068d13b0ef50e304e98b578b88dfcf879a26bc079dde",
        },
        "debate": {
            "embeddings.jsonl": "421368d9a21aa4de948fc76154d64db4642eba95dd2ad6a9b3d1346f4973c916",
            "debate_L4_N2.jsonl": "b16aa45f56ddc5912cc15a637c2989e5d5a708847fb5530cde230e7b00600847",
            "debate_L4_N4.jsonl": "d91c5b789a71a3db3208fd510861aea7a8cd053d0e7d021c88d05c57bcaeeaa6",
            "debate_L4_N8.jsonl": "e09435903246f729837fdf53c0681a92fc26bfaa7cc0f8a19c92249aff822f0a",
        },
    }

    @pytest.mark.parametrize("workflow", ["vote", "debate"])
    def test_mock_store_bytes_pinned(self, tmp_path, workflow):
        # dim 256 puts about 100 components below 1e-4 in the debate rows,
        # which json.dumps prints as 1e-05-style exponents
        cfg_path, _ = base_config(
            tmp_path, n_tasks=5, workflow=workflow, layer="L4", model_pool=["m1", "m2", "m3"],
            n_agents_list=[2, 4, 8], backend={"kind": "mock", "dim": 256}, concurrency_limit=2,
            **({"rounds": 2} if workflow == "debate" else {}))
        assert main(["run", str(cfg_path)]) == 0
        digests = {name: hashlib.sha256(data).hexdigest()
                   for name, data in store_bytes(tmp_path / "store").items()}
        assert digests == self.GOLDEN[workflow]

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        cfg_a, _ = base_config(tmp_path / "a", n_agents_list=[3])
        cfg_b, _ = base_config(tmp_path / "b", n_agents_list=[3])
        assert main(["run", str(cfg_a)]) == 0
        assert main(["run", str(cfg_b)]) == 0
        a = (tmp_path / "a" / "store" / "vote_L1_N3.jsonl").read_bytes()
        b = (tmp_path / "b" / "store" / "vote_L1_N3.jsonl").read_bytes()
        assert a == b


class TestConfigValidation:
    @pytest.mark.parametrize("overrides", [
        {"n_agents_list": [0]},
        {"n_agents_list": [2.5]},
        {"n_agents_list": [True]},
        {"workflow": "debate", "rounds": "3"},
        {"concurrency_limit": "4"},
        {"concurrency_limit": 0},
    ], ids=["n-zero", "n-float", "n-bool", "rounds-string", "concurrency-string",
            "concurrency-zero"])
    def test_bad_count_exits_2_before_output_dir(self, tmp_path, capsys, overrides):
        cfg_path, _ = base_config(tmp_path, **overrides)
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert code == 2
        assert "must be an integer >= 1" in out.err
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("overrides", [
        {"layer": "L2", "persona_pool": ["skeptic"]},
        {"layer": "L3", "model_pool": ["m1"]},
        {"layer": "L2", "persona_pool": ["skeptic", "nobody"]},
    ], ids=["l2-one-persona", "l3-one-model", "persona-missing-from-catalog"])
    def test_unbuildable_pool_exits_2_before_output_dir(self, tmp_path, capsys, overrides):
        cfg_path, _ = base_config(tmp_path, **overrides)
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert code == 2
        assert out.err.startswith("error: ")
        assert not (tmp_path / "store").exists()


    @pytest.mark.parametrize("overrides", [
        {"layer": "L3", "model_pool": "gpt4"},
        {"model_pool": [""]},
        {"layer": "L3", "model_pool": ["m1", 3]},
        {"model_pool": None},
        {"persona_pool": "skeptic"},
        {"persona_pool": []},
        {"persona_pool": [""]},
        {"persona_pool": None},
    ], ids=["model-string", "model-empty-name", "model-not-string", "model-null",
            "persona-string", "persona-empty", "persona-empty-name", "persona-null"])
    def test_bad_pool_list_exits_2_before_output_dir(self, tmp_path, capsys, overrides):
        cfg_path, _ = base_config(tmp_path, n_agents_list=[2], **overrides)
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert code == 2
        assert "must be a nonempty list of nonempty strings" in out.err
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("tasks, backend, message", [
        ('{"id": "t0", "question": "Q?"}\n[1, 2]\n', None, "line 2"),
        ('{"id": "t0", "question": "Q?"}\n{"id": "t0", "question": "Again?"}\n', None,
         "line 2 repeats id 't0'"),
        (None, {"kind": "openai"}, "chat_url"),
        (None, {"kind": "bogus"}, "bogus"),
        (None, "mock", "backend must be a JSON object"),
        (None, {"kind": "mock", "dim": "8"}, "backend dim must be an integer >= 1"),
        (None, {"kind": "mock", "dim": 0}, "backend dim must be an integer >= 1"),
        (None, {"kind": "openai", "chat_url": 5}, "backend chat_url must be a string"),
        (None, {"kind": "openai", "chat_url": "http://127.0.0.1:9/v1", "api_key_env": 5},
         "backend api_key_env must be a string"),
    ], ids=["task-not-object", "task-id-repeated", "openai-without-chat-url",
            "unknown-backend-kind", "backend-string", "mock-dim-string", "mock-dim-zero",
            "chat-url-number", "api-key-env-number"])
    def test_bad_tasks_or_backend_exit_2_before_output_dir(self, tmp_path, capsys, tasks,
                                                           backend, message):
        cfg_path, _ = base_config(tmp_path, **({"backend": backend} if backend else {}))
        if tasks is not None:
            (tmp_path / "tasks.jsonl").write_text(tasks)
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert code == 2
        assert message in out.err
        assert not (tmp_path / "store").exists()


class InflightChat(MockChatBackend):
    """Mock chat that counts calls in flight, sharing the count with InflightEmbed.

    With `meet` set, each call waits (up to a timeout) until `meet` calls are
    in flight at once, so overlap shows without relying on timing.
    """

    deterministic = False

    def __init__(self, seed, meet=None):
        super().__init__(seed=seed)
        self.meet = meet
        self.met = threading.Event()
        self.lock = threading.Lock()
        self.now = self.peak = 0

    def enter(self):
        with self.lock:
            self.now += 1
            self.peak = max(self.peak, self.now)
            if self.meet is not None and self.now >= self.meet:
                self.met.set()

    def leave(self):
        with self.lock:
            self.now -= 1

    def chat(self, messages, model, decoding):
        self.enter()
        try:
            if self.meet is not None:
                self.met.wait(2.0)
            else:
                time.sleep(0.001)
            return super().chat(messages, model, decoding)
        finally:
            self.leave()


class InflightEmbed(MockEmbeddingBackend):
    deterministic = False

    def __init__(self, chat, dim, seed):
        super().__init__(dim=dim, seed=seed)
        self.chat = chat

    def embed(self, texts, model=None):
        self.chat.enter()
        try:
            time.sleep(0.001)
            return super().embed(texts, model)
        finally:
            self.chat.leave()


class ThreadedMockChat(MockChatBackend):
    """The mock, taken through run_tasks' thread pools as a remote backend is."""

    deterministic = False


class ThreadedMockEmbed(MockEmbeddingBackend):
    deterministic = False


class RecordingChat(MockChatBackend):
    """Mock chat noting, per call, its thread and the number of live threads."""

    def __init__(self, seed):
        super().__init__(seed=seed)
        self.seen = set()

    def chat(self, messages, model, decoding):
        self.seen.add((threading.get_ident(), threading.active_count()))
        return super().chat(messages, model, decoding)


class RecordingEmbed(MockEmbeddingBackend):
    def __init__(self, dim, seed):
        super().__init__(dim=dim, seed=seed)
        self.seen = set()

    def embed(self, texts, model=None):
        self.seen.add((threading.get_ident(), threading.active_count()))
        return super().embed(texts, model)


def without_clock(store):
    """Store files with the fields a non-deterministic backend takes from the clock removed."""
    out = {}
    for name, data in store.items():
        if name == "embeddings.jsonl":
            out[name] = data
            continue
        rows = [json.loads(line) for line in data.splitlines()]
        for row in rows:
            del row["timestamp"]
            for call in row["calls"]:
                del call["latency_ms"]
        out[name] = rows
    return out


def store_bytes(store_dir):
    return {name: (store_dir / name).read_bytes()
            for name in sorted(os.listdir(store_dir)) if name.endswith(".jsonl")}


class TestPipeline:
    def test_requests_in_flight_within_limit(self, tmp_path, monkeypatch):
        chat = InflightChat(seed=11)
        embed = InflightEmbed(chat, dim=4, seed=11)
        monkeypatch.setattr(cli, "_build_backends", lambda cfg: (chat, embed))
        cfg_path, _ = base_config(tmp_path, n_tasks=6, workflow="debate", rounds=2,
                                  n_agents_list=[2, 4], concurrency_limit=2)
        assert main(["run", str(cfg_path)]) == 0
        assert 1 <= chat.peak <= 2
        assert chat.now == 0

    def test_tasks_overlap(self, tmp_path, monkeypatch):
        chat = InflightChat(seed=11, meet=2)
        monkeypatch.setattr(
            cli, "_build_backends", lambda cfg: (chat, MockEmbeddingBackend(dim=4, seed=11)))
        cfg_path, _ = base_config(tmp_path, n_tasks=4, n_agents_list=[1], concurrency_limit=2)
        assert main(["run", str(cfg_path)]) == 0
        assert chat.peak == 2

    @pytest.mark.parametrize("workflow", ["vote", "debate"])
    def test_store_bytes_independent_of_concurrency(self, tmp_path, workflow):
        stores = []
        for limit in (1, 4):
            cfg_path, _ = base_config(
                tmp_path / f"c{limit}", n_tasks=5, workflow=workflow, layer="L4",
                model_pool=["m1", "m2", "m3"], n_agents_list=[2, 4, 8],
                concurrency_limit=limit)
            assert main(["run", str(cfg_path)]) == 0
            stores.append(store_bytes(tmp_path / f"c{limit}" / "store"))
        assert len(stores[0]) == 4  # three stores and embeddings.jsonl
        assert stores[0] == stores[1]

    @pytest.mark.parametrize("workflow", ["vote", "debate"])
    def test_threaded_store_bytes_independent_of_concurrency(self, tmp_path, monkeypatch,
                                                            workflow):
        def run(name, limit):
            cfg_path, _ = base_config(
                tmp_path / name, n_tasks=5, workflow=workflow, layer="L4",
                model_pool=["m1", "m2", "m3"], n_agents_list=[2, 4, 8],
                concurrency_limit=limit)
            assert main(["run", str(cfg_path)]) == 0
            return without_clock(store_bytes(tmp_path / name / "store"))

        monkeypatch.setattr(cli, "_build_backends", lambda cfg: (
            ThreadedMockChat(seed=cfg["seed"]),
            ThreadedMockEmbed(dim=cfg["backend"]["dim"], seed=cfg["seed"])))
        threaded = [run(f"c{limit}", limit) for limit in (1, 4)]
        monkeypatch.undo()
        inline = run("inline", 4)
        assert len(inline) == 4  # three stores and embeddings.jsonl
        assert threaded == [inline, inline]

    def test_in_process_backends_run_on_the_calling_thread(self, tmp_path, monkeypatch):
        chat, embed = RecordingChat(seed=11), RecordingEmbed(dim=4, seed=11)
        monkeypatch.setattr(cli, "_build_backends", lambda cfg: (chat, embed))
        cfg_path, _ = base_config(tmp_path, workflow="debate", rounds=2, n_agents_list=[2, 4],
                                  concurrency_limit=4)
        threads = threading.active_count()
        assert main(["run", str(cfg_path)]) == 0
        assert chat.seen == embed.seen == {(threading.get_ident(), threads)}
        assert threading.active_count() == threads


class FailingEmbed:
    max_batch = None

    def __init__(self, failure):
        self.failure = failure

    def embed(self, texts, model=None):
        if self.failure == "backend":
            raise BackendError("embedding service down")
        if self.failure == "null":
            return [[None, 0.5] for _ in texts]
        return [[1.0] * (i + 1) for i in range(len(texts))]  # ragged widths


class TestEmbeddingFailures:
    @pytest.mark.parametrize("failure", ["backend", "dimensions"])
    def test_warns_per_task_and_keeps_running(self, tmp_path, capsys, monkeypatch, failure):
        monkeypatch.setattr(
            cli, "_build_backends", lambda cfg: (MockChatBackend(seed=11), FailingEmbed(failure)))
        cfg_path, _ = base_config(tmp_path, n_agents_list=[2])
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert code == 0
        warnings = out.err.strip().splitlines()
        assert len(warnings) == 3
        for i, line in enumerate(warnings):
            assert line.startswith("warning:")
            assert f"task t{i} " in line and "N=2" in line
            assert ("embedding service down" if failure == "backend"
                    else "inconsistent embedding dimensions") in line
        assert len(list(TranscriptStore(tmp_path / "store" / "vote_L1_N2.jsonl"))) == 3
        assert not (tmp_path / "store" / "embeddings.jsonl").exists()

    def test_non_numeric_vectors_write_no_row(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "_build_backends", lambda cfg: (MockChatBackend(seed=11), FailingEmbed("null")))
        cfg_path, _ = base_config(tmp_path, n_agents_list=[2])
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert code == 0
        warnings = out.err.strip().splitlines()
        assert len(warnings) == 3
        assert all("embedding row 0 is not a flat list of finite numbers" in w for w in warnings)
        assert not (tmp_path / "store" / "embeddings.jsonl").exists()
        # the store stays readable: accuracy reports, no spectral columns
        assert main(["analyze", str(tmp_path / "store")]) == 0

    def test_crash_then_changed_config_is_refused(self, tmp_path, capsys, monkeypatch):
        cfg_path, cfg = base_config(tmp_path, n_agents_list=[2])
        store = tmp_path / "store"
        append = TranscriptStore.append
        appends = []

        def crash_on_second(self, transcript):
            appends.append(transcript.task_id)
            if len(appends) == 2:
                raise OSError("disk full")
            append(self, transcript)

        monkeypatch.setattr(TranscriptStore, "append", crash_on_second)
        with pytest.raises(OSError, match="disk full"):
            main(["run", str(cfg_path)])
        monkeypatch.setattr(TranscriptStore, "append", append)
        manifest = json.loads((store / "manifest.json").read_text())
        assert manifest["status"] == "running"

        before = store_bytes(store), (store / "manifest.json").read_bytes()
        cfg_path.write_text(json.dumps({**cfg, "seed": 12}))
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert code == 2
        assert "resume refused" in out.err
        assert (store_bytes(store), (store / "manifest.json").read_bytes()) == before

        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 0
        assert TranscriptStore(store / "vote_L1_N2.jsonl").task_ids() == {"t0", "t1", "t2"}
        manifest = json.loads((store / "manifest.json").read_text())
        assert manifest["status"] == "done"

    def test_crash_before_transcript_append_is_redone(self, tmp_path, monkeypatch):
        ref_cfg, _ = base_config(tmp_path / "ref", n_agents_list=[2])
        assert main(["run", str(ref_cfg)]) == 0
        cfg_path, _ = base_config(tmp_path / "crash", n_agents_list=[2])
        store = tmp_path / "crash" / "store"
        append = TranscriptStore.append
        appends = []

        def crash_on_second(self, transcript):
            appends.append(transcript.task_id)
            if len(appends) == 2:
                raise OSError("disk full")
            append(self, transcript)

        monkeypatch.setattr(TranscriptStore, "append", crash_on_second)
        with pytest.raises(OSError, match="disk full"):
            main(["run", str(cfg_path)])
        monkeypatch.setattr(TranscriptStore, "append", append)

        # t1's vectors are written, its transcript is not: t1 is not done
        assert TranscriptStore(store / "vote_L1_N2.jsonl").task_ids() == {"t0"}
        rows = [json.loads(l)["id"] for l in (store / "embeddings.jsonl").read_text().splitlines()]
        assert rows == ["t0:0", "t0:1", "t1:0", "t1:1"]

        assert main(["run", str(cfg_path)]) == 0
        ref = tmp_path / "ref" / "store"
        assert (store / "vote_L1_N2.jsonl").read_bytes() == (ref / "vote_L1_N2.jsonl").read_bytes()
        rows = [json.loads(l) for l in (store / "embeddings.jsonl").read_text().splitlines()]
        assert [r["id"] for r in rows].count("t1:0") == 2  # the rerun's rows come later
        ref_rows = [json.loads(l) for l in (ref / "embeddings.jsonl").read_text().splitlines()]
        assert {r["id"]: r["vector"] for r in rows} == {r["id"]: r["vector"] for r in ref_rows}
        assert main(["analyze", str(store)]) == 0


class TestAnalyze:
    def run_store(self, tmp_path, **overrides):
        cfg_path, cfg = base_config(tmp_path, **overrides)
        assert main(["run", str(cfg_path)]) == 0
        return tmp_path / "store"

    def test_report_bundle_present(self, tmp_path):
        store = self.run_store(tmp_path)
        assert main(["analyze", str(store)]) == 0
        reports = store / "reports"
        for name in ("summaries.csv", "summaries.json", "accuracy_vs_n.csv",
                     "marginal_gains.csv", "agents_to_match.csv", "boundary.csv",
                     "kstar_vs_accuracy.csv"):
            assert (reports / name).exists(), name
        rows = json.loads((reports / "summaries.json").read_text())
        assert {r["n_agents"] for r in rows} == {2, 4}
        assert all(r["k_star"] is not None for r in rows)

    def test_skipped_stats_reports_print_notes(self, tmp_path, capsys):
        store = self.run_store(tmp_path)
        code, out = run_cli("analyze", str(store), capsys=capsys)
        assert code == 0
        for name in ("permutation_report.json", "regression_report.json"):
            assert f"note: {name} skipped: 2 configs with K*, need at least 5" in out.err
            assert not (store / "reports" / name).exists()

    def test_no_embeddings_warns_but_reports_accuracy(self, tmp_path, capsys):
        store = self.run_store(tmp_path)
        (store / "embeddings.jsonl").unlink()
        code, out = run_cli("analyze", str(store), capsys=capsys)
        assert code == 0
        assert "warning" in out.err
        reports = store / "reports"
        assert (reports / "accuracy_vs_n.csv").exists()
        assert not (reports / "boundary.csv").exists()
        rows = json.loads((reports / "summaries.json").read_text())
        assert all(r["k_star"] is None for r in rows)

    def test_empty_store_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _ = run_cli("analyze", str(empty), capsys=capsys)
        assert code == 2

    def test_merged_stores_recompute_accuracy(self, tmp_path):
        s1 = self.run_store(tmp_path / "r1", n_agents_list=[2])
        s2 = self.run_store(tmp_path / "r2", n_agents_list=[4])
        out = tmp_path / "merged_reports"
        code = main(["analyze", str(s1), "--merge", str(s2), "--output", str(out)])
        assert code == 0
        rows = json.loads((out / "summaries.json").read_text())
        assert {r["n_agents"] for r in rows} == {2, 4}
        assert all(r["task_count"] == 3 for r in rows)

    def test_merged_stores_keep_their_own_vectors(self, tmp_path):
        # same tasks and call indices, so the same embedding ids, but other vectors
        s1 = self.run_store(tmp_path / "r1", layer="L1", seed=11)
        s2 = self.run_store(tmp_path / "r2", layer="L2", seed=12)
        rows = [{json.loads(l)["id"]: json.loads(l)["vector"]
                 for l in (s / "embeddings.jsonl").read_text().splitlines()} for s in (s1, s2)]
        assert rows[0].keys() == rows[1].keys()
        assert rows[0] != rows[1]
        alone = {}
        for store in (s1, s2):
            assert main(["analyze", str(store)]) == 0
            for r in json.loads((store / "reports" / "summaries.json").read_text()):
                alone[(r["layer"], r["n_agents"])] = r
        out = tmp_path / "merged_reports"
        assert main(["analyze", str(s1), "--merge", str(s2), "--output", str(out)]) == 0
        merged = json.loads((out / "summaries.json").read_text())
        assert len(merged) == len(alone) == 4
        for r in merged:
            assert r == alone[(r["layer"], r["n_agents"])]

    def test_merged_store_without_embeddings_exits_2(self, tmp_path, capsys):
        s1 = self.run_store(tmp_path / "r1", layer="L1")
        s2 = self.run_store(tmp_path / "r2", layer="L2")
        (s2 / "embeddings.jsonl").unlink()
        code, out = run_cli("analyze", str(s1), "--merge", str(s2),
                            "--output", str(tmp_path / "out"), capsys=capsys)
        assert code == 2
        assert "no embeddings for task" in out.err

    def test_malformed_store_line_exits_2_with_file_and_line(self, tmp_path, capsys):
        store = self.run_store(tmp_path, n_agents_list=[2])
        lines = (store / "vote_L1_N2.jsonl").read_text().splitlines()
        lines[2] = lines[2][:40]
        (store / "vote_L1_N2.jsonl").write_text("\n".join(lines) + "\n")
        code, out = run_cli("analyze", str(store), capsys=capsys)
        assert code == 2
        assert f"{store / 'vote_L1_N2.jsonl'}: malformed transcript at line 3" in out.err

    def test_zero_norm_embedding_exits_2_naming_its_id(self, tmp_path, capsys):
        store = self.run_store(tmp_path, n_agents_list=[2])
        rows = [json.loads(l) for l in (store / "embeddings.jsonl").read_text().splitlines()]
        for r in rows:
            if r["id"] == "t1:1":
                r["vector"] = [0.0] * len(r["vector"])
        write_jsonl(store / "embeddings.jsonl", rows)
        code, out = run_cli("analyze", str(store), capsys=capsys)
        assert code == 2
        assert "embedding t1:1 has norm" in out.err

    def test_repeated_embedding_ids_warn_once_per_store(self, tmp_path, capsys):
        # N=2 and N=4 of one output_dir write the same ids t0:0, t0:1, ...
        two_n = self.run_store(tmp_path / "two", n_agents_list=[2, 4])
        one_n = self.run_store(tmp_path / "one", n_agents_list=[4])
        code, out = run_cli("analyze", str(two_n), "--merge", str(one_n),
                            "--output", str(tmp_path / "out"), capsys=capsys)
        assert code == 0
        warnings = [l for l in out.err.splitlines() if l.startswith("warning:")]
        assert warnings == [f"warning: {two_n / 'embeddings.jsonl'} repeats embedding id "
                            "'t0:0'; each repeated id keeps its last row"]

    def test_pooled_mode_recorded(self, tmp_path):
        store = self.run_store(tmp_path, n_agents_list=[2])
        assert main(["analyze", str(store), "--mode", "pooled"]) == 0
        rows = json.loads((store / "reports" / "summaries.json").read_text())
        assert all(r["mode"] == "pooled" for r in rows)

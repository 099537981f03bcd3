import collections
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import masinfo
from masinfo import analysis, backends, harness, spectral
from masinfo import store as store_module
from masinfo.backends import MockChatBackend, MockEmbeddingBackend
from masinfo.cli import main
from masinfo.harness import BackendError, TranscriptStore
from masinfo.info_theory import bsc_views_joint, usable_evidence
from test_spectral import after_a_tick, change_a_digit


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
        '["2", true]', "[true, false]", "[true, 1.5]",
    ], ids=["null", "nan", "infinity", "overflow", "nested", "numeric-string", "boolean",
            "mixed"])
    def test_non_finite_row_exits_2_with_line(self, tmp_path, capsys, vector):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "vector": [1.0, 0.0]}\n{"id": "b", "vector": %s}\n' % vector)
        code, out = run_cli("kstar", str(path), capsys=capsys)
        assert code == 2
        assert "line 2" in out.err

    @pytest.mark.parametrize("mask, expected", [
        (None, '{"eigenvalues": [0.25, 0.25, 0.25, 0.25], "entropy_bits": 2.0, "k_star": 4.0}\n'),
        ("[true, false, true, false]",
         '{"eigenvalues": [0.25, 0.25, 0.25, 0.25], "entropy_bits": 2.0, "k_star": 4.0, '
         '"k_star_c": 2.0, "k_star_w": 2.0}\n'),
    ], ids=["plain", "mask"])
    def test_output_bytes_pinned(self, tmp_path, capsys, mask, expected):
        # orthogonal rows of assorted norms: every number here is exact
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "vector": [3.0, 0.0, 0.0, 0.0]}\n'
                        '{"id": "b", "vector": [0.0, 0.5, 0.0, 0.0]}\n\n'
                        '{"id": "c", "vector": [0, 0, 7, 0]}\n'
                        '{"id": "d", "vector": [0.0, 0.0, 0.0, -2.0]}\n')
        argv = ["kstar", str(path)]
        if mask:
            (tmp_path / "mask.json").write_text(mask)
            argv += ["--mask", str(tmp_path / "mask.json")]
        code, out = run_cli(*argv, capsys=capsys)
        assert code == 0
        assert out.out == expected

    def test_clones_have_positive_zero_entropy(self, tmp_path, capsys):
        # the fully homogeneous case: one channel, entropy 0.0 and never -0.0
        path = tmp_path / "emb.jsonl"
        write_jsonl(path, [{"id": str(i), "vector": [3.0, 4.0]} for i in range(2)])
        code, out = run_cli("kstar", str(path), capsys=capsys)
        assert code == 0
        assert out.out == '{"eigenvalues": [1.0, 0.0], "entropy_bits": 0.0, "k_star": 1.0}\n'

    def test_output_is_the_summary_fields_in_order(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((9, 6)) * 3.0
        path = tmp_path / "emb.jsonl"
        write_jsonl(path, [{"id": str(i), "vector": v} for i, v in enumerate(raw.tolist())])
        mask = [bool(m) for m in rng.integers(0, 2, 9)]
        (tmp_path / "mask.json").write_text(json.dumps(mask))
        code, out = run_cli("kstar", str(path), "--mask", str(tmp_path / "mask.json"),
                            capsys=capsys)
        assert code == 0
        emb = spectral.EmbeddingSet(raw)
        summary = spectral.k_star(emb)
        c, w = spectral.k_star_conditioned(emb, mask)
        assert out.out == json.dumps({"eigenvalues": list(summary.eigenvalues),
                                      "entropy_bits": summary.entropy_bits,
                                      "k_star": summary.k_star,
                                      "k_star_c": c, "k_star_w": w}) + "\n"

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

    @pytest.mark.parametrize("calls", [None, 2])
    def test_output_is_the_report_fields_in_order(self, tmp_path, capsys, calls):
        joint = tmp_path / "joint.json"
        joint.write_text(bsc_views_joint(0.2, 6).to_json())
        argv = ["bounds", str(joint)] + (["--calls", str(calls)] if calls else [])
        code, out = run_cli(*argv, capsys=capsys)
        assert code == 0
        r = usable_evidence(bsc_views_joint(0.2, 6), n_calls=calls)
        assert out.out == json.dumps({"h_y_given_x": r.h_y_given_x, "i_mas": r.i_mas,
                                      "increments": list(r.increments),
                                      "ceiling_parallel": r.ceiling_parallel,
                                      "ceiling_sequential": r.ceiling_sequential}) + "\n"

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

    @pytest.mark.parametrize("text, named", [
        ("[1, 2]", "JSON object"),
        ("null", "JSON object"),
        # a JSON string holding a joint is a string, not a joint
        (json.dumps(json.dumps({"alphabets": [1, 2, 2], "probs": [0.25] * 4})), "JSON object"),
        ('{"alphabets": 3, "probs": [1.0]}', "'alphabets'"),
        ('{"alphabets": [2.7, 2], "probs": [0.25, 0.25, 0.25, 0.25]}', "'alphabets'"),
        ('{"alphabets": [true, 2, 2], "probs": [0.25, 0.25, 0.25, 0.25]}', "'alphabets'"),
        ('{"alphabets": [1, 2, 2], "probs": [0.25, 0.25, 0.25, 0.25], "names": 5}', "'names'"),
        ('{"alphabets": [1, 2, 2], "probs": [0.25, 0.25, 0.25, 0.25], "names": ["X", "Y", 3]}',
         "'names'"),
        ('{"probs": [0.25, 0.25, 0.25, 0.25]}', "'alphabets'"),
        ('{"alphabets": [1, 2, 2]}', "'probs'"),
        ('{"alphabets": [1, 2, 2], "probs": [0.5, 0.5]}', "'probs'"),
        ('{"alphabets": [1, 2, 2], "probs": [0.25, 0.25, 0.25, true]}', "'probs'"),
        ('{"alphabets": [1, 2, 2], "probs": [0.5, NaN, 0.25, 0.25]}', "finite"),
    ], ids=["list", "null", "string", "alphabets-int", "alphabets-float", "alphabets-bool", "names-int",
            "names-not-strings", "no-alphabets", "no-probs", "probs-count", "probs-bool",
            "probs-nan"])
    def test_malformed_joint_exits_2_naming_the_field(self, tmp_path, capsys, text, named):
        joint = tmp_path / "joint.json"
        joint.write_text(text)
        code, out = run_cli("bounds", str(joint), capsys=capsys)
        assert code == 2
        assert out.err.startswith("error: ") and named in out.err
        assert out.out == ""


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

    def test_negative_k_exits_2_naming_it(self, tmp_path, capsys):
        # k counts channels; 1 - e^(-alpha k) is negative below 0
        curve = tmp_path / "curve.csv"
        curve.write_text("k,fraction\n-3,0.0\n1,0.26\n2,0.45\n")
        code, out = run_cli("fit-alpha", str(curve), capsys=capsys)
        assert code == 2
        assert "got -3.0" in out.err
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


def test_warm_analyze_leaves_out_orjson(tmp_path):
    # a hit maps the cache's rows and reads its header with json: no JSONL is decoded
    cfg_path, _ = base_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    store = tmp_path / "store"
    after_a_tick(store / "embeddings.jsonl")  # so that the cold analyze writes the cache
    assert main(["analyze", str(store), "--output", str(tmp_path / "cold")]) == 0
    src = os.path.dirname(os.path.dirname(masinfo.__file__))
    script = (
        "import sys\n"
        "from masinfo.cli import main\n"
        f"assert main(['analyze', {str(store)!r}, '--output', {str(tmp_path / 'warm')!r}]) == 0\n"
        "print('orjson' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    assert [p.read_bytes() for p in sorted((tmp_path / "warm").iterdir())] == \
           [p.read_bytes() for p in sorted((tmp_path / "cold").iterdir())]


def test_offline_commands_leave_out_the_network_stack(tmp_path):
    # only `run` on an openai backend loads the HTTP/TLS client and the thread pools
    curve = tmp_path / "curve.csv"
    curve.write_text("".join(f"{k},{1.0 - math.exp(-0.3 * k)}\n" for k in range(1, 9)))
    joint = tmp_path / "joint.json"
    joint.write_text(bsc_views_joint(0.1, 3).to_json())
    cfg_path, _ = base_config(tmp_path)
    store = tmp_path / "store"
    network = ("http.client", "ssl", "urllib.request", "email.utils", "concurrent.futures")
    src = os.path.dirname(os.path.dirname(masinfo.__file__))

    def loaded(commands):
        script = (
            "import os, sys\n"
            "from masinfo import coverage\n"
            "from masinfo.cli import main\n"
            "coverage._usable_cpus = lambda: 2\n"
            f"{commands}"
            f"print([m for m in {network!r} if m in sys.modules])\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    # 6,000 trials of 16 bits are 3 chunks, which simulate splits between
    # threads on any host
    assert loaded(
        "assert main(['simulate', '--alpha', '0.2', '--trials', '6000', '--output', os.devnull]) == 0\n"
        f"assert main(['bounds', {str(joint)!r}, '--output', os.devnull]) == 0\n"
        f"assert main(['fit-alpha', {str(curve)!r}, '--output', os.devnull]) == 0\n"
        f"assert main(['run', {str(cfg_path)!r}]) == 0\n"
        f"assert main(['kstar', {str(store / 'embeddings.jsonl')!r}, '--output', os.devnull]) == 0\n"
    ) == "[]"
    # a second process, after a tick, so that the cold analyze writes the cache
    # and the warm one maps it
    after_a_tick(store / "embeddings.jsonl")
    assert loaded(
        f"assert main(['analyze', {str(store)!r}, '--output', {str(tmp_path / 'cold')!r}]) == 0\n"
        f"assert os.path.exists({str(store / 'embeddings.cache')!r})\n"
        f"assert main(['analyze', {str(store)!r}, '--output', {str(tmp_path / 'warm')!r}]) == 0\n"
    ) == "[]"


# a locale whose encoding is ASCII, with Python's UTF-8 mode and locale
# coercion off: the default encoding of open() is then ASCII
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def run_in_ascii_locale(*argv):
    src = os.path.dirname(os.path.dirname(masinfo.__file__))
    return subprocess.run([sys.executable, "-m", "masinfo.cli", *argv],
                          env={**os.environ, **ASCII_LOCALE, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)


def test_run_reads_a_utf8_dataset_in_any_locale(tmp_path):
    cfg_path, _ = base_config(tmp_path / "here", workflow="debate", layer="L4", rounds=2,
                              model_pool=["m1", "m2"])
    (tmp_path / "here" / "tasks.jsonl").write_text("".join(json.dumps(
        {"id": f"t{i}", "question": f"Is x{i} \u2264 y, for \u00e9t\u00e9?",
         "choices": ["oui", "non", "peut-\u00eatre"], "answer": "A"}, ensure_ascii=False) + "\n"
        for i in range(3)), encoding="utf-8")
    assert main(["run", str(cfg_path)]) == 0
    cfg = json.loads(cfg_path.read_text())
    cfg["output_dir"] = str(tmp_path / "ascii")
    cfg_path.write_text(json.dumps(cfg))
    proc = run_in_ascii_locale("run", str(cfg_path))
    assert proc.returncode == 0, proc.stderr
    assert store_bytes(tmp_path / "ascii") == store_bytes(tmp_path / "here" / "store")


def test_analyze_writes_utf8_reports_in_any_locale(tmp_path):
    cfg_path, _ = base_config(tmp_path, workflow="debate", layer="L4", rounds=2,
                              model_pool=["m1", "m2"], dataset_name="l\u00f3gica")
    assert main(["run", str(cfg_path)]) == 0
    store = tmp_path / "store"
    assert main(["analyze", str(store), "--output", str(tmp_path / "here")]) == 0
    proc = run_in_ascii_locale("analyze", str(store), "--output", str(tmp_path / "ascii"))
    assert proc.returncode == 0, proc.stderr
    names = sorted(os.listdir(tmp_path / "here"))
    assert sorted(os.listdir(tmp_path / "ascii")) == names
    for name in names:
        assert (tmp_path / "ascii" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()
    assert "l\u00f3gica" in (tmp_path / "here" / "summaries.csv").read_text(encoding="utf-8")


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
    def test_each_store_file_is_opened_once(self, tmp_path, monkeypatch):
        cfg_path, _ = base_config(tmp_path)  # three tasks into each of two stores
        opened = []

        def counting_open(file, mode="r", *args, **kwargs):
            if "a" in mode:
                opened.append(os.path.basename(file))
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(harness, "open", counting_open, raising=False)
        assert main(["run", str(cfg_path)]) == 0
        assert sorted(opened) == ["vote_L1_N2.jsonl", "vote_L1_N4.jsonl"]
        assert all(len(list(TranscriptStore(tmp_path / "store" / name))) == 3 for name in opened)

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

    def test_resume_on_mistyped_store_line_exits_2_before_any_call(self, tmp_path, capsys):
        cfg_path, _ = base_config(tmp_path, n_agents_list=[2])
        assert main(["run", str(cfg_path)]) == 0
        store = tmp_path / "store"
        lines = (store / "vote_L1_N2.jsonl").read_text().splitlines()
        t = json.loads(lines[1])
        t["layer"] = None
        (store / "vote_L1_N2.jsonl").write_text(lines[0] + "\n" + json.dumps(t) + "\n")
        before = store_bytes(store)
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert code == 2
        assert "vote_L1_N2.jsonl: malformed transcript at line 2: layer must be a string" in out.err
        assert store_bytes(store) == before

    @pytest.mark.parametrize("workflow", ["vote", "debate"])
    def test_store_lines_read_back_as_written(self, tmp_path, workflow):
        rounds = 2 if workflow == "debate" else None
        cfg_path, _ = base_config(tmp_path, workflow=workflow, rounds=rounds)
        assert main(["run", str(cfg_path)]) == 0
        for f in (tmp_path / "store").glob(f"{workflow}_*.jsonl"):
            lines = f.read_text().splitlines()
            assert [json.dumps(t.to_dict(), sort_keys=True) for t in TranscriptStore(f)] == lines

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

    def test_store_without_manifest_exits_2_before_any_call(self, tmp_path, capsys):
        # without its manifest a store's config is unknown: a run of any config
        # would otherwise adopt its transcripts and rows as its own
        cfg_path, cfg = base_config(tmp_path, layer="L4", model_pool=["m1", "m2"],
                                    n_agents_list=[2], seed=7)
        assert main(["run", str(cfg_path)]) == 0
        store = tmp_path / "store"
        (store / "manifest.json").unlink()
        before = store_bytes(store)
        cfg_path.write_text(json.dumps({**cfg, "seed": 8}))
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert code == 2
        assert out.err == (f"error: {store} holds transcripts or embeddings but no "
                           "manifest.json; resume refused\n")
        assert store_bytes(store) == before
        assert sorted(os.listdir(store)) == ["embeddings.jsonl", "vote_L4_N2.jsonl"]

    def test_empty_output_dir_starts_a_run(self, tmp_path):
        cfg_path, _ = base_config(tmp_path, n_agents_list=[2])
        (tmp_path / "store").mkdir()
        assert main(["run", str(cfg_path)]) == 0
        assert sorted(os.listdir(tmp_path / "store")) == ["embeddings.jsonl", "manifest.json",
                                                          "vote_L1_N2.jsonl"]

    def test_repeated_n_lists_its_store_file_once(self, tmp_path):
        once, _ = base_config(tmp_path / "once", n_agents_list=[2, 4])
        twice, _ = base_config(tmp_path / "twice", n_agents_list=[2, 2, 4])
        assert main(["run", str(once)]) == 0
        assert main(["run", str(twice)]) == 0
        manifest = json.loads((tmp_path / "twice" / "store" / "manifest.json").read_text())
        assert manifest["files"] == ["vote_L1_N2.jsonl", "vote_L1_N4.jsonl"]
        assert manifest["n_agents_list"] == [2, 2, 4]
        assert store_bytes(tmp_path / "twice" / "store") == store_bytes(tmp_path / "once" / "store")

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

    # sha256 of each file `run` writes on these configs; any change to the
    # transcript or vector bytes shows here.  The transcript files' digests
    # predate the "n" field of embedding rows, embeddings.jsonl's include it
    GOLDEN = {
        "vote": {
            "embeddings.jsonl": "0aa7609b9ee727da1ec3d9e14db692d9ebf608695858a6fde602adbd75d2fe0d",
            "vote_L4_N2.jsonl": "e7999e53f16f15e6a2c7e851b99c6faa18e5a7a64711b9a2e5a4b86335ff0411",
            "vote_L4_N4.jsonl": "2b0413d0a801724911c1904bc12704c8343a5a4c5daced5ac9ff423dd8353dfc",
            "vote_L4_N8.jsonl": "b3e8b5a39ac34247bed3068d13b0ef50e304e98b578b88dfcf879a26bc079dde",
        },
        "debate": {
            "embeddings.jsonl": "f4cfeb491a3e8bd5db0f667d5d5a82bb855aab1d7955a1c13b34dd3affb0becf",
            "debate_L4_N2.jsonl": "b16aa45f56ddc5912cc15a637c2989e5d5a708847fb5530cde230e7b00600847",
            "debate_L4_N4.jsonl": "d91c5b789a71a3db3208fd510861aea7a8cd053d0e7d021c88d05c57bcaeeaa6",
            "debate_L4_N8.jsonl": "e09435903246f729837fdf53c0681a92fc26bfaa7cc0f8a19c92249aff822f0a",
        },
    }

    @staticmethod
    def run_pinned(tmp_path, workflow):
        # dim 256 puts about 100 components below 1e-4 in the debate rows,
        # which json.dumps prints as 1e-05-style exponents
        cfg_path, _ = base_config(
            tmp_path, n_tasks=5, workflow=workflow, layer="L4", model_pool=["m1", "m2", "m3"],
            n_agents_list=[2, 4, 8], backend={"kind": "mock", "dim": 256}, concurrency_limit=2,
            **({"rounds": 2} if workflow == "debate" else {}))
        assert main(["run", str(cfg_path)]) == 0
        return tmp_path / "store"

    @pytest.mark.parametrize("workflow", ["vote", "debate"])
    def test_mock_store_bytes_pinned(self, tmp_path, workflow):
        digests = {name: hashlib.sha256(data).hexdigest()
                   for name, data in store_bytes(self.run_pinned(tmp_path, workflow)).items()}
        assert digests == self.GOLDEN[workflow]

    # sha256 of each config's embeddings.jsonl at the commit before rows named
    # their N: with the "n" field taken out, the rows are those bytes exactly
    ROWS_WITHOUT_N = {
        "vote": "597b7f7780af2d749d8fba346f62aacdf50a2be10720e906bd875974d40d03d6",
        "debate": "421368d9a21aa4de948fc76154d64db4642eba95dd2ad6a9b3d1346f4973c916",
    }

    @pytest.mark.parametrize("workflow", ["vote", "debate"])
    def test_rows_are_the_older_rows_with_their_n(self, tmp_path, workflow):
        data = (self.run_pinned(tmp_path, workflow) / "embeddings.jsonl").read_bytes()
        row = re.compile(rb'^(\{"id": "[^"]*"), "n": ([0-9]+)(, "vector": )', re.MULTILINE)
        rounds = 2 if workflow == "debate" else 1
        # 5 tasks of N * rounds calls each
        assert collections.Counter(m[2] for m in row.finditer(data)) == {
            str(n).encode(): 5 * n * rounds for n in (2, 4, 8)}
        older = row.sub(rb"\1\3", data)
        assert hashlib.sha256(older).hexdigest() == self.ROWS_WITHOUT_N[workflow]

    def test_task_rows_streamed_not_held(self, tmp_path):
        # one debate task of 16 agents and 4 rounds: 64 rows of 4096 numbers,
        # about 5.9 MB.  Each row goes to the file as it is made, so the run
        # never holds the task's rows, neither as text nor as bytes.
        cfg_path, _ = base_config(
            tmp_path, n_tasks=1, workflow="debate", layer="L4", rounds=4,
            model_pool=["m1", "m2", "m3"], n_agents_list=[16],
            backend={"kind": "mock", "dim": 4096})
        tracemalloc.start()
        try:
            assert main(["run", str(cfg_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = (tmp_path / "store" / "embeddings.jsonl").read_bytes()
        assert rows.count(b"\n") == 64
        assert peak < len(rows)

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

    @pytest.mark.parametrize("text", ["null", "5", "[]", '"dataset_path output_dir"'],
                             ids=["null", "number", "list", "string"])
    def test_config_not_an_object_exits_2(self, tmp_path, capsys, text):
        # `in` on a string tests substrings, so this one held every "required field"
        path = tmp_path / "config.json"
        path.write_text(text)
        code, out = run_cli("run", str(path), capsys=capsys)
        assert code == 2
        assert out.err == "error: config must be a JSON object\n"

    @pytest.mark.parametrize("name", [5, "", None, ["bench"]],
                             ids=["number", "empty", "null", "list"])
    def test_dataset_name_not_a_nonempty_string_exits_2_before_output_dir(self, tmp_path,
                                                                          capsys, name):
        cfg_path, _ = base_config(tmp_path, dataset_name=name)
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert code == 2
        assert f"dataset_name must be a nonempty string, got {name!r}" in out.err
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("dataset_path", 0, "a nonempty string"),  # os.path takes it for stdin's descriptor
        ("dataset_path", "", "a nonempty string"),
        ("dataset_path", None, "a nonempty string"),
        ("output_dir", 5, "a nonempty string"),
        ("output_dir", ["store"], "a nonempty string"),
        ("output_dir", "", "a nonempty string"),
        ("persona_catalog_path", 1, "a string"),  # stdout's descriptor
        ("persona_catalog_path", ["personas.json"], "a string"),
    ], ids=["dataset-fd", "dataset-empty", "dataset-null", "output-number", "output-list",
            "output-empty", "catalog-fd", "catalog-list"])
    def test_path_field_not_a_string_exits_2_before_output_dir(self, tmp_path, monkeypatch,
                                                              capsys, key, value, message):
        cfg_path, _ = base_config(tmp_path, **{key: value})
        monkeypatch.chdir(tmp_path)  # where an output_dir of 5 would be made
        before = sorted(os.listdir(tmp_path))
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert code == 2
        assert out.err == f"error: {key} must be {message}, got {value!r}\n"
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("value", [None, ""], ids=["null", "empty"])
    def test_absent_persona_catalog_path_runs(self, tmp_path, value):
        cfg_path, _ = base_config(tmp_path, n_agents_list=[2], persona_catalog_path=value)
        assert main(["run", str(cfg_path)]) == 0

    def test_store_with_a_number_for_dataset_still_analyzes_alone(self, tmp_path):
        # as an older run wrote it from "dataset_name": 5
        cfg_path, _ = base_config(tmp_path, dataset_name="bench")
        assert main(["run", str(cfg_path)]) == 0
        for f in (tmp_path / "store").glob("vote_*.jsonl"):
            f.write_text(f.read_text().replace('"dataset": "bench"', '"dataset": 5'))
        assert main(["analyze", str(tmp_path / "store"), "--output", str(tmp_path / "out")]) == 0
        rows = json.loads((tmp_path / "out" / "summaries.json").read_text())
        assert {r["dataset"] for r in rows} == {5}

    def test_store_with_a_number_for_dataset_merges_with_a_string_one(self, tmp_path):
        # numbers sort before strings, so each config reports as its store alone
        for name, dataset in (("num", "bench"), ("str", "other")):
            cfg_path, _ = base_config(tmp_path / name, n_tasks=2, dataset_name=dataset)
            assert main(["run", str(cfg_path)]) == 0
        for f in (tmp_path / "num" / "store").glob("vote_*.jsonl"):
            f.write_text(f.read_text().replace('"dataset": "bench"', '"dataset": 5'))

        def summaries(*stores):
            out = tmp_path / "-".join(stores)
            argv = [str(tmp_path / stores[0] / "store"), "--output", str(out)]
            if stores[1:]:
                argv += ["--merge", str(tmp_path / stores[1] / "store")]
            assert main(["analyze", *argv]) == 0
            return json.loads((out / "summaries.json").read_text())

        alone = summaries("num") + summaries("str")
        assert [r["dataset"] for r in alone] == [5, 5, "other", "other"]
        assert summaries("num", "str") == summaries("str", "num") == alone

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

    @pytest.mark.parametrize("overrides, catalog, message", [
        ({"dataset_path": "absent.jsonl"}, None, "dataset not found: absent.jsonl"),
        ({"workflow": "chain"}, None, "kind must be 'vote' or 'debate'"),
        ({"persona_catalog_path": "absent.json"}, None,
         "persona catalog not found: absent.json"),
        ({}, '["skeptic"]', "persona catalog must map persona ids to prompt strings"),
        ({}, '{"skeptic": 1}', "persona catalog must map persona ids to prompt strings"),
        # no agent of these takes the missing persona, yet the config names it
        ({"layer": "L3", "model_pool": ["m1", "m2"], "persona_pool": ["nobody"]}, None,
         "persona 'nobody' missing from catalog"),
        ({"layer": "L4", "model_pool": ["m1", "m2"],
          "persona_pool": ["skeptic", "teacher", "nobody"]}, None,
         "persona 'nobody' missing from catalog"),
        ({"layer": "L2", "persona_pool": ["skeptic", "teacher"]}, '{"skeptic": "S."}',
         "persona 'teacher' missing from catalog"),
    ], ids=["dataset-absent", "workflow-unknown", "catalog-absent", "catalog-list",
            "catalog-number-text", "l3-persona-missing", "l4-persona-missing-past-n",
            "persona-missing-from-catalog-file"])
    def test_config_naming_what_is_not_there_exits_2_before_output_dir(
            self, tmp_path, monkeypatch, capsys, overrides, catalog, message):
        if catalog is not None:
            (tmp_path / "personas.json").write_text(catalog)
            overrides = {**overrides, "persona_catalog_path": "personas.json"}
        cfg_path, _ = base_config(tmp_path, n_agents_list=[2], **overrides)
        monkeypatch.chdir(tmp_path)  # where the relative paths point
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert code == 2
        assert out.err == f"error: {message}\n"
        assert not (tmp_path / "store").exists()

    def test_persona_catalog_file_gives_l2_agents_its_texts(self, tmp_path, monkeypatch):
        texts = {"alpha": "You are Alpha.", "beta": "You are Beta."}
        (tmp_path / "personas.json").write_text(json.dumps(texts))
        # no persona_pool: the pool is the catalog's names, in its order
        cfg_path, _ = base_config(tmp_path, layer="L2", n_agents_list=[2],
                                  persona_catalog_path=str(tmp_path / "personas.json"))
        seen = collections.Counter()

        class SystemRecordingChat(MockChatBackend):
            def chat(self, messages, model, decoding):
                seen.update(m["content"] for m in messages if m["role"] == "system")
                return super().chat(messages, model, decoding)

        build = backends.build
        monkeypatch.setattr(backends, "build", lambda spec, seed: (
            SystemRecordingChat(seed=seed), build(spec, seed)[1]))
        assert main(["run", str(cfg_path)]) == 0
        assert seen == {text: 3 for text in texts.values()}  # one call a task each
        labels = {c["agent_type_label"].split("|")[1]
                  for t in TranscriptStore(tmp_path / "store" / "vote_L2_N2.jsonl")
                  for c in t.calls}
        assert labels == set(texts)


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

    @pytest.mark.parametrize("overrides, message", [
        ({"layer": "L3", "model_pool": ["m1", "m1"]}, "model_pool repeats 'm1'"),
        ({"layer": "L4", "model_pool": ["m1", "m2", "m1"], "persona_pool": ["skeptic", "logician"]},
         "model_pool repeats 'm1'"),
        ({"layer": "L4", "model_pool": ["m1", "m2"], "persona_pool": ["skeptic", "skeptic"]},
         "persona_pool repeats 'skeptic'"),
    ], ids=["l3-one-model-twice", "l4-model-twice", "l4-persona-twice"])
    def test_repeated_pool_name_exits_2_before_output_dir(self, tmp_path, capsys, overrides,
                                                          message):
        # a name given twice is one agent type: ["m1", "m1"] would run a
        # homogeneous pool and file it as L3
        cfg_path, _ = base_config(tmp_path, n_agents_list=[2], **overrides)
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert code == 2
        assert out.err == f"error: {message}\n"
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("tasks, backend, message", [
        ('{"id": "t0", "question": "Q?"}\n[1, 2]\n', None, "line 2"),
        ('{"id": "t0", "question": "Q?"}\n{"id": "t0", "question": "Again?"}\n', None,
         "line 2 repeats id 't0'"),
        ('{"id": "t0", "question": "Q?"}\n{"id": "t1", "question": 5}\n', None,
         "line 2: question must be a string, got 5"),
        ('{"id": "t0", "question": "Q?", "choices": "ab"}\n', None,
         "line 1: choices must be a list, got 'ab'"),
        ('{"id": "t0", "question": "Q?", "choices": ["a", "b"]}\n'
         + json.dumps({"id": "t1", "question": "Q?", "choices": list("abcdefghijkl")}) + "\n",
         None, "task at line 2 has 12 choices, more than the 10 letters ABCDEFGHIJ"),
        ("", None, "holds no tasks"),
        ("\n\n", None, "holds no tasks"),
        (None, {"kind": "openai"}, "chat_url"),
        (None, {"kind": "bogus"}, "bogus"),
        (None, "mock", "backend must be a JSON object"),
        (None, {"kind": "mock", "dim": "8"}, "backend dim must be an integer >= 1"),
        (None, {"kind": "mock", "dim": 0}, "backend dim must be an integer >= 1"),
        (None, {"kind": "openai", "chat_url": 5}, "backend chat_url must be a string"),
        (None, {"kind": "openai", "chat_url": "http://127.0.0.1:9/v1", "api_key_env": 5},
         "backend api_key_env must be a string"),
    ], ids=["task-not-object", "task-id-repeated", "question-number", "choices-string",
            "twelve-choices", "no-tasks", "blank-lines-only",
            "openai-without-chat-url",
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

    def embed(self, texts):
        self.chat.enter()
        try:
            time.sleep(0.001)
            return super().embed(texts)
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

    def embed(self, texts):
        self.seen.add((threading.get_ident(), threading.active_count()))
        return super().embed(texts)


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
        monkeypatch.setattr(backends, "build", lambda spec, seed: (chat, embed))
        cfg_path, _ = base_config(tmp_path, n_tasks=6, workflow="debate", rounds=2,
                                  n_agents_list=[2, 4], concurrency_limit=2)
        assert main(["run", str(cfg_path)]) == 0
        assert 1 <= chat.peak <= 2
        assert chat.now == 0

    def test_tasks_overlap(self, tmp_path, monkeypatch):
        chat = InflightChat(seed=11, meet=2)
        monkeypatch.setattr(
            backends, "build", lambda spec, seed: (chat, MockEmbeddingBackend(dim=4, seed=11)))
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

        monkeypatch.setattr(backends, "build", lambda spec, seed: (
            ThreadedMockChat(seed=seed), ThreadedMockEmbed(dim=spec["dim"], seed=seed)))
        threaded = [run(f"c{limit}", limit) for limit in (1, 4)]
        monkeypatch.undo()
        inline = run("inline", 4)
        assert len(inline) == 4  # three stores and embeddings.jsonl
        assert threaded == [inline, inline]

    def test_in_process_backends_run_on_the_calling_thread(self, tmp_path, monkeypatch):
        chat, embed = RecordingChat(seed=11), RecordingEmbed(dim=4, seed=11)
        monkeypatch.setattr(backends, "build", lambda spec, seed: (chat, embed))
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
        if self.failure == "zero":
            return [[0.0, 0.0] if i == 1 else [0.6, 0.8] for i in range(len(texts))]
        return [[1.0] * (i + 1) for i in range(len(texts))]  # ragged widths


class TestEmbeddingFailures:
    # FailingEmbed fails by batch position, and fetch_embeddings sends each
    # distinct text once: the two calls of each task need distinct outputs.
    # FailingEmbed is not deterministic, so run_tasks takes its threaded
    # path, where tasks running side by side would interleave their pops of
    # the scripted answers; one task at a time keeps "AB" within each task.
    @staticmethod
    def distinct_chat():
        return MockChatBackend(seed=11, initial_answers="ABABAB")

    @pytest.mark.parametrize("failure", ["backend", "dimensions"])
    def test_warns_per_task_and_keeps_running(self, tmp_path, capsys, monkeypatch, failure):
        monkeypatch.setattr(
            backends, "build", lambda spec, seed: (self.distinct_chat(), FailingEmbed(failure)))
        cfg_path, _ = base_config(tmp_path, n_agents_list=[2], concurrency_limit=1)
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
            backends, "build", lambda spec, seed: (MockChatBackend(seed=11), FailingEmbed("null")))
        cfg_path, _ = base_config(tmp_path, n_agents_list=[2])
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert code == 0
        warnings = out.err.strip().splitlines()
        assert len(warnings) == 3
        assert all("embedding row 0 is not a flat list of finite numbers" in w for w in warnings)
        assert not (tmp_path / "store" / "embeddings.jsonl").exists()
        # the store stays readable: accuracy reports, no spectral columns
        assert main(["analyze", str(tmp_path / "store")]) == 0

    def test_zero_norm_vectors_write_no_row(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            backends, "build", lambda spec, seed: (self.distinct_chat(), FailingEmbed("zero")))
        cfg_path, _ = base_config(tmp_path, n_agents_list=[2], concurrency_limit=1)
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert code == 0
        warnings = out.err.strip().splitlines()
        assert len(warnings) == 3
        assert all("embedding row 1 has norm < 1e-12" in w for w in warnings)
        assert len(list(TranscriptStore(tmp_path / "store" / "vote_L1_N2.jsonl"))) == 3
        assert not (tmp_path / "store" / "embeddings.jsonl").exists()
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
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert (code, out.err) == (2, "error: disk full\n")
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
        done = {t.task_id for t in TranscriptStore(store / "vote_L1_N2.jsonl")}
        assert done == {"t0", "t1", "t2"}
        manifest = json.loads((store / "manifest.json").read_text())
        assert manifest["status"] == "done"

    def test_crash_before_transcript_append_is_redone(self, tmp_path, capsys, monkeypatch):
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
        code, out = run_cli("run", str(cfg_path), capsys=capsys)
        assert (code, out.err) == (2, "error: disk full\n")
        monkeypatch.setattr(TranscriptStore, "append", append)

        # t1's vectors are written, its transcript is not: t1 is not done
        assert {t.task_id for t in TranscriptStore(store / "vote_L1_N2.jsonl")} == {"t0"}
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

    def test_skipped_reports_leave_no_stale_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        stats = ["permutation_report.json", "regression_report.json"]
        spectral = ["boundary.csv", "kstar_vs_accuracy.csv"]
        ten = [self.run_store(tmp_path / layer, n_tasks=8, layer=layer,
                              n_agents_list=[2, 3, 4, 5, 6], model_pool=["m1", "m2"])
               for layer in ("L2", "L4")]
        assert main(["analyze", str(ten[0]), "--merge", str(ten[1]), "--output", str(out)]) == 0
        assert all((out / name).exists() for name in stats + spectral)
        (out / "notes.txt").write_text("not a report")
        # two configs with K*: the stats reports of the ten are stale
        two = self.run_store(tmp_path / "two")
        code, _ = run_cli("analyze", str(two), "--output", str(out), capsys=capsys)
        assert code == 0
        assert [name for name in stats + spectral if (out / name).exists()] == spectral
        # no K* at all: nor do the spectral reports of the two stand
        (two / "embeddings.jsonl").unlink()
        code, _ = run_cli("analyze", str(two), "--output", str(out), capsys=capsys)
        assert code == 0
        assert not any((out / name).exists() for name in stats + spectral)
        assert (out / "notes.txt").read_text() == "not a report"
        assert all(r["k_star"] is None for r in json.loads((out / "summaries.json").read_text()))

    def test_empty_vectors_named_by_line_and_never_cached(self, tmp_path, capsys):
        store = self.run_store(tmp_path)
        emb = store / "embeddings.jsonl"
        rows = [{**json.loads(line), "vector": []} for line in emb.read_text().splitlines()]
        write_jsonl(emb, rows)
        message = "malformed embedding row at line 1: vector is empty"
        code, out = run_cli("kstar", str(emb), capsys=capsys)
        assert (code, out.err) == (2, f"error: {message}\n")
        code, out = run_cli("analyze", str(store), capsys=capsys)
        assert (code, out.err) == (2, f"error: {emb}: {message}\n")
        assert not any("cache" in p.name for p in store.iterdir())

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

    def test_negative_seed_exits_2_before_reading(self, tmp_path, capsys):
        # numpy takes no negative seed; the permutation test runs only from 5 configs
        store = self.run_store(tmp_path)
        code, out = run_cli("analyze", str(store), "--seed", "-1", capsys=capsys)
        assert code == 2
        assert "--seed: must be >= 0, got -1" in out.err
        assert not (store / "reports").exists()

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

    @staticmethod
    def held_rows(monkeypatch):
        """For each load_store_embeddings call, the stores whose rows are alive
        when it returns; a finalizer on each returned array marks it freed."""
        load, live, held = store_module.load_store_embeddings, set(), []

        def tracked(path):
            ids, rows = load(path)
            store = os.path.dirname(path)
            live.add(store)
            weakref.finalize(rows, live.discard, store)
            held.append(sorted(live))
            return ids, rows

        monkeypatch.setattr(store_module, "load_store_embeddings", tracked)
        return held

    @pytest.mark.parametrize("cache", ["cold", "warm"])
    def test_per_question_holds_one_stores_rows_at_a_time(self, tmp_path, monkeypatch, cache):
        # the last two share every config: in pooled mode they would go together
        stores = [str(self.run_store(tmp_path / name, layer=layer, seed=seed))
                  for name, layer, seed in (("a", "L1", 11), ("b", "L2", 12), ("c", "L2", 13))]
        argv = ["analyze", stores[0], "--merge", *stores[1:], "--output", str(tmp_path / "out")]
        if cache == "warm":
            assert main(argv) == 0
        held = self.held_rows(monkeypatch)
        assert main(argv) == 0
        assert held == [[s] for s in stores]

    def test_pooled_holds_together_only_stores_that_share_a_config(self, tmp_path, monkeypatch):
        # b and c both hold vote/L2/N2 and vote/L2/N4; a shares no config with them
        b, a, c = (str(self.run_store(tmp_path / name, layer=layer, seed=seed))
                   for name, layer, seed in (("b", "L2", 12), ("a", "L1", 11), ("c", "L2", 13)))
        held = self.held_rows(monkeypatch)
        assert main(["analyze", b, "--merge", a, c, "--mode", "pooled",
                     "--output", str(tmp_path / "out")]) == 0
        assert held == [[b], sorted([b, c]), [a]]

    @pytest.mark.parametrize("cache", ["cold", "warm"])
    @pytest.mark.parametrize("mode", ["per-question", "pooled"])
    def test_pooled_group_across_two_stores_reports_as_all_at_once(self, tmp_path, monkeypatch,
                                                                    mode, cache):
        # vote/L1/N4 is in both stores: its one pooled unit stacks the rows of both.
        # The reference reads the stores without masinfo.store, so the store
        # layer, cold or warm, must not change a report
        s1 = self.run_store(tmp_path / "r1", seed=11)
        s2 = self.run_store(tmp_path / "r2", seed=12, n_agents_list=[4, 8])
        out = tmp_path / "out"
        argv = ["analyze", str(s1), "--merge", str(s2), "--mode", mode, "--seed", "5",
                "--output", str(out)]
        if cache == "warm":
            for store in (s1, s2):  # so that the first analyze writes the caches
                after_a_tick(store / "embeddings.jsonl")
            assert main(argv[:-1] + [str(tmp_path / "first")]) == 0
        with monkeypatch.context() as m:
            if cache == "warm":
                m.setattr(spectral, "load_embeddings_jsonl", None)  # a hit decodes nothing
            assert main(argv) == 0
        stores = []
        for store in (s1, s2):
            ts = [t for f in sorted(store.glob("vote_*.jsonl")) for t in TranscriptStore(f)]
            ids, rows = spectral.load_embeddings_jsonl(store / "embeddings.jsonl")
            index = dict(zip(ids, range(len(ids))))
            stores.append((ts, lambda index=index, rows=rows: lambda t: (
                rows, [index[i] for i in t.embedding_ids()])))
        summaries = analysis.summarize_table(analysis.score(stores, mode))
        assert [(s.n_agents, s.task_count) for s in summaries] == [(2, 3), (4, 6), (8, 3)]
        files, _ = analysis.report_bundle(summaries, seed=5)
        assert {p.name: p.read_text() for p in out.iterdir()} == files

    @pytest.mark.parametrize("again", ["same", "dot-slash", "symlink"])
    def test_store_given_twice_exits_2_before_reading(self, tmp_path, monkeypatch, capsys,
                                                      again):
        # merged with itself, a store would count each of its tasks twice
        self.run_store(tmp_path, workflow="debate", layer="L4", model_pool=["m1", "m2"],
                       rounds=2)
        monkeypatch.chdir(tmp_path)
        if again == "symlink":
            os.symlink("store", "link")
        repeat = {"same": "store", "dot-slash": "./store/", "symlink": "link"}[again]
        code, out = run_cli("analyze", "store", "--merge", repeat, "--output", "out",
                            capsys=capsys)
        assert code == 2
        assert out.err == f"error: store directory {repeat} repeats store\n"
        assert not os.path.exists("out")
        assert not os.path.exists("store/embeddings.cache")

    @pytest.mark.parametrize("mode", ["per-question", "pooled"])
    def test_merged_store_without_embeddings_exits_2(self, tmp_path, capsys, mode):
        s1 = self.run_store(tmp_path / "r1", layer="L1")
        s2 = self.run_store(tmp_path / "r2", layer="L2")
        (s2 / "embeddings.jsonl").unlink()
        code, out = run_cli("analyze", str(s1), "--merge", str(s2), "--mode", mode,
                            "--output", str(tmp_path / "out"), capsys=capsys)
        assert code == 2
        assert "no embeddings for task" in out.err

    @pytest.mark.parametrize("mode", ["per-question", "pooled"])
    @pytest.mark.parametrize("first, second, message", [
        ({"workflow": "debate", "rounds": 2}, {"workflow": "debate", "rounds": 4},
         "tasks.jsonl/debate/L1/N4 mixes transcripts whose rounds differ: 2 and 4"),
        ({"model_pool": ["m1"]}, {"model_pool": ["m9"]},
         "tasks.jsonl/vote/L1/N4 mixes transcripts whose agent_type_label differ: "
         "['m1|default|t0.7|p0.95|m1024'] and ['m9|default|t0.7|p0.95|m1024']"),
    ], ids=["rounds", "model-pool"])
    def test_merge_of_two_configs_of_one_key_exits_2_naming_the_field(
            self, tmp_path, capsys, mode, first, second, message):
        s1 = self.run_store(tmp_path / "a", n_agents_list=[4], **first)
        s2 = self.run_store(tmp_path / "b", n_agents_list=[4], **second)
        code, out = run_cli("analyze", str(s1), "--merge", str(s2), "--mode", mode,
                            "--output", str(tmp_path / "out"), capsys=capsys)
        assert code == 2
        assert out.err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_store_of_only_invalid_transcripts_is_not_decoded(self, tmp_path, capsys):
        # run writes no rows for an invalid transcript; a hand-made store that
        # has some anyway, and malformed, is never read, as its rows score nothing
        good = self.run_store(tmp_path / "good", n_agents_list=[2])
        bad = self.run_store(tmp_path / "bad", n_agents_list=[2], seed=12)
        path = bad / "vote_L1_N2.jsonl"
        path.write_text(path.read_text().replace('"invalid": false', '"invalid": true'))
        (bad / "embeddings.jsonl").write_text('{"id": "t0:0", "vector": [1.0,\n')
        assert main(["analyze", str(good), "--output", str(tmp_path / "alone")]) == 0
        code, out = run_cli("analyze", str(good), "--merge", str(bad),
                            "--output", str(tmp_path / "merged"), capsys=capsys)
        assert code == 0
        assert not (bad / "embeddings.cache").exists()
        assert ({p.name: p.read_text() for p in (tmp_path / "merged").iterdir()}
                == {p.name: p.read_text() for p in (tmp_path / "alone").iterdir()})

    @pytest.mark.parametrize("fault, message", [
        ("bad-row", "malformed embedding row at line 7: "),
        ("empty", "embedding file is empty\n"),
    ])
    def test_embedding_decode_error_names_the_stores_file(self, tmp_path, capsys, fault,
                                                          message):
        s1 = self.run_store(tmp_path / "r1", layer="L1", n_agents_list=[2])
        s2 = self.run_store(tmp_path / "r2", layer="L2", n_agents_list=[2])
        emb = s2 / "embeddings.jsonl"
        if fault == "bad-row":
            with open(emb, "a") as fh:
                fh.write('{"id": "t9:0", "vector": [1.0,\n')
        else:
            emb.write_text("")
        code, out = run_cli("analyze", str(s1), "--merge", str(s2),
                            "--output", str(tmp_path / "out"), capsys=capsys)
        assert code == 2
        assert out.err.startswith(f"error: {emb}: {message}")

    def test_each_n_of_a_multi_n_store_reports_as_its_store_alone(self, tmp_path):
        config = {"workflow": "debate", "layer": "L4", "rounds": 2, "seed": 7,
                  "model_pool": ["m1", "m2"], "backend": {"kind": "mock", "dim": 16}}
        both = self.run_store(tmp_path / "both", n_agents_list=[2, 4], **config)
        alone = self.run_store(tmp_path / "alone", n_agents_list=[2], **config)

        def n2_row(store):
            assert main(["analyze", str(store)]) == 0
            lines = (store / "reports" / "summaries.csv").read_text().splitlines()
            return next(line for line in lines if line.split(",")[3] == "2")

        assert n2_row(both) == n2_row(alone)

    @pytest.mark.parametrize("first", ["zero-norm", "no-embeddings"])
    def test_of_two_faulty_stores_the_first_given_names_the_error(self, tmp_path, capsys,
                                                                   first):
        # the L2 store has a zero-norm row, the L1 store no embeddings.jsonl:
        # store by store, the first on the command line fails first, whichever
        # config sorts first
        zero = self.run_store(tmp_path / "zero", layer="L2", n_agents_list=[2])
        rows = [json.loads(l) for l in (zero / "embeddings.jsonl").read_text().splitlines()]
        rows[0]["vector"] = [0.0] * len(rows[0]["vector"])
        write_jsonl(zero / "embeddings.jsonl", rows)
        bare = self.run_store(tmp_path / "bare", layer="L1", n_agents_list=[2])
        (bare / "embeddings.jsonl").unlink()
        stores = [str(zero), str(bare)] if first == "zero-norm" else [str(bare), str(zero)]
        code, out = run_cli("analyze", stores[0], "--merge", stores[1],
                            "--output", str(tmp_path / "out"), capsys=capsys)
        assert code == 2
        assert out.err == ("error: embedding t0:0 has norm < 1e-12\n" if first == "zero-norm"
                           else "error: 'no embeddings for task t0'\n")

    def test_malformed_store_line_exits_2_with_file_and_line(self, tmp_path, capsys):
        store = self.run_store(tmp_path, n_agents_list=[2])
        lines = (store / "vote_L1_N2.jsonl").read_text().splitlines()
        lines[2] = lines[2][:40]
        (store / "vote_L1_N2.jsonl").write_text("\n".join(lines) + "\n")
        code, out = run_cli("analyze", str(store), capsys=capsys)
        assert code == 2
        assert f"{store / 'vote_L1_N2.jsonl'}: malformed transcript at line 3" in out.err

    @staticmethod
    def edit_first_line(path, edit):
        lines = path.read_text().splitlines()
        t = json.loads(lines[0])
        edit(t)
        path.write_text("\n".join([json.dumps(t)] + lines[1:]) + "\n")

    @pytest.mark.parametrize("mode", ["per-question", "pooled"])
    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.update(calls=5), "calls must be a list, got 5"),
        (lambda t: t.update(calls=[1, 2, 3, 4]), "call 0 must be an object, got 1"),
        (lambda t: [c.pop("call_index") for c in t["calls"]], "call 0 has no 'call_index' field"),
        (lambda t: t.update(calls=[]),
         "calls must hold n_agents * rounds calls, both >= 1: got 4 * 1 and 0 calls"),
        (lambda t: t["calls"].pop(),
         "calls must hold n_agents * rounds calls, both >= 1: got 4 * 1 and 3 calls"),
        (lambda t: t["calls"][1].update(round="1"), "call 1 round must be an integer, got '1'"),
        (lambda t: t["calls"][2].update(raw_output=7),
         "call 2 raw_output must be a string or null, got 7"),
        (lambda t: t.update(n_agents="4"), "n_agents must be an integer, got '4'"),
        (lambda t: t.update(rounds=0),
         "calls must hold n_agents * rounds calls, both >= 1: got 4 * 0 and 4 calls"),
        (lambda t: t.update(layer=None), "layer must be a string, got None"),
        (lambda t: t.update(dataset=None), "dataset must be a string or a number, got None"),
        (lambda t: t.update(invalid="no"), "invalid must be a boolean, got 'no'"),
        (lambda t: t.update(tie=None), "tie must be a boolean, got None"),
        (lambda t: t.update(schema=2), "schema 2 is not 1"),
    ], ids=["calls-number", "calls-of-numbers", "call-without-index", "calls-empty",
            "calls-short", "round-string", "raw-output-number", "n-agents-string",
            "rounds-zero", "layer-null", "dataset-null", "invalid-string", "tie-null",
            "schema-2"])
    def test_mistyped_store_field_exits_2_with_file_and_line(self, tmp_path, capsys, edit,
                                                             message, mode):
        store = self.run_store(tmp_path, n_tasks=4, layer="L4", n_agents_list=[4],
                               model_pool=["m1", "m2"], seed=3)
        self.edit_first_line(store / "vote_L4_N4.jsonl", edit)
        code, out = run_cli("analyze", str(store), "--mode", mode, "--output",
                            str(tmp_path / "out"), capsys=capsys)
        assert code == 2
        assert out.err == (f"error: {store / 'vote_L4_N4.jsonl'}: malformed transcript at "
                           f"line 1: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("gold", [42, 0.5, None])
    def test_gold_answer_of_any_json_type_is_read(self, tmp_path, gold):
        store = self.run_store(tmp_path, n_agents_list=[2])
        self.edit_first_line(store / "vote_L1_N2.jsonl", lambda t: t.update(gold_answer=gold))
        assert main(["analyze", str(store)]) == 0

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
        argv = ["analyze", str(two_n), "--merge", str(one_n), "--output", str(tmp_path / "out")]
        code, out = run_cli(*argv, capsys=capsys)
        assert code == 0
        assert "warning:" not in out.err  # each row names its N
        # rows as stores written before they named their N hold them
        for store in (two_n, one_n):
            rows = [json.loads(l) for l in (store / "embeddings.jsonl").read_text().splitlines()]
            write_jsonl(store / "embeddings.jsonl", [
                {"id": r["id"], "vector": r["vector"]} for r in rows])
        code, out = run_cli(*argv, capsys=capsys)
        assert code == 0
        warnings = [l for l in out.err.splitlines() if l.startswith("warning:")]
        assert warnings == [f"warning: {two_n / 'embeddings.jsonl'} repeats embedding id "
                            "'t0:0'; each repeated id keeps its last row"]

    def analyze(self, store, out):
        assert main(["analyze", str(store), "--output", str(out)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_reports_identical_cold_warm_and_without_cache(self, tmp_path, monkeypatch):
        store = self.run_store(tmp_path)
        cache = store / "embeddings.cache"
        after_a_tick(store / "embeddings.jsonl")  # so that the cold analyze writes the cache
        cold = self.analyze(store, tmp_path / "cold")
        assert cache.exists()
        with monkeypatch.context() as m:
            m.setattr(spectral, "load_embeddings_jsonl", None)  # a hit decodes nothing
            warm = self.analyze(store, tmp_path / "warm")
        # a copy's JSONL has a new inode, so its stamp fails: the first analyze
        # decodes and rewrites the copy's cache, and the next one hits
        shutil.copytree(store, tmp_path / "copy")
        after_a_tick(tmp_path / "copy" / "embeddings.jsonl")
        copied = self.analyze(tmp_path / "copy", tmp_path / "copied")
        with monkeypatch.context() as m:
            m.setattr(spectral, "load_embeddings_jsonl", None)
            copied_warm = self.analyze(tmp_path / "copy", tmp_path / "copied_warm")
        cache.unlink()
        rebuilt = self.analyze(store, tmp_path / "rebuilt")
        assert cache.exists()
        # the reference: every store decoded from its JSONL, no cache
        monkeypatch.setattr(store_module, "load_store_embeddings", spectral.load_embeddings_jsonl)
        assert cold == warm == copied == copied_warm == rebuilt == \
            self.analyze(store, tmp_path / "jsonl")

    def test_edit_with_its_mtime_put_back_reports_as_a_cold_analyze(self, tmp_path):
        store = self.run_store(tmp_path)
        emb, cache = store / "embeddings.jsonl", store / "embeddings.cache"
        after_a_tick(emb)  # so that the warm cache is written, and the edit moves the ctime
        warm = self.analyze(store, tmp_path / "warm")
        assert cache.exists()
        before = change_a_digit(emb)
        os.utime(emb, ns=(before.st_atime_ns, before.st_mtime_ns))
        edited = self.analyze(store, tmp_path / "edited")
        cache.unlink()
        assert edited == self.analyze(store, tmp_path / "cold")
        assert edited["summaries.csv"] != warm["summaries.csv"]

    def test_unwritable_cache_changes_nothing(self, tmp_path, monkeypatch, capsys):
        store = self.run_store(tmp_path)
        after_a_tick(store / "embeddings.jsonl")
        want = self.analyze(store, tmp_path / "ref")
        (store / "embeddings.cache").unlink()
        before = sorted(os.listdir(store))

        def read_only(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(store_module.tempfile, "mkstemp", read_only)
        capsys.readouterr()
        assert self.analyze(store, tmp_path / "ro") == want
        assert sorted(os.listdir(store)) == before
        assert "error" not in capsys.readouterr().err

    def test_store_files_untouched(self, tmp_path):
        store = self.run_store(tmp_path)
        after_a_tick(store / "embeddings.jsonl")  # so that the cold analyze writes the cache
        before = {name: (store / name).read_bytes() for name in os.listdir(store)}
        self.analyze(store, tmp_path / "cold")
        self.analyze(store, tmp_path / "warm")
        after = {name: (store / name).read_bytes() for name in os.listdir(store)}
        assert after.pop("embeddings.cache")
        assert after == before

    def test_older_versions_npz_cache_is_neither_read_nor_modified(self, tmp_path, monkeypatch):
        store = self.run_store(tmp_path)
        # the zip an older version kept, under the right key but with every row
        # the same: reading it would read K* = 1 everywhere
        emb = store / "embeddings.jsonl"
        ids, rows = spectral.load_embeddings_jsonl(emb)
        data = emb.read_bytes()
        leftover = store / "embeddings.cache.npz"
        np.savez(leftover, format=np.array(2), size=np.array(len(data)),
                 sha256=np.array(hashlib.sha256(data).hexdigest()),
                 vectors=np.repeat(rows[:1], len(rows), axis=0),
                 ids=np.frombuffer(json.dumps(ids).encode(), dtype=np.uint8))
        old = leftover.read_bytes()
        cold = self.analyze(store, tmp_path / "cold")
        warm = self.analyze(store, tmp_path / "warm")
        assert leftover.read_bytes() == old
        monkeypatch.setattr(store_module, "load_store_embeddings", spectral.load_embeddings_jsonl)
        assert cold == warm == self.analyze(store, tmp_path / "jsonl")

    def test_resumed_run_beside_the_cache_writes_the_same_store(self, tmp_path):
        ref = self.run_store(tmp_path / "ref", n_agents_list=[2])
        cfg_path, _ = base_config(tmp_path / "resumed", n_tasks=2, n_agents_list=[2])
        assert main(["run", str(cfg_path)]) == 0
        store = tmp_path / "resumed" / "store"
        after_a_tick(store / "embeddings.jsonl")
        self.analyze(store, tmp_path / "early")
        assert (store / "embeddings.cache").exists()
        make_dataset(tmp_path / "resumed", 3)  # the config is unchanged, so t2 resumes
        assert main(["run", str(cfg_path)]) == 0
        assert store_bytes(store) == store_bytes(ref)
        # the stale cache is rewritten, not read
        assert self.analyze(store, tmp_path / "late") == self.analyze(ref, tmp_path / "ref_reports")

    def test_dataset_kept_in_the_store_is_not_read_as_transcripts(self, tmp_path):
        # analyze reads only the store files run names, <workflow>_<layer>_N<n>.jsonl
        cfg_path, _ = base_config(tmp_path / "o", output_dir=str(tmp_path / "o"))
        assert (tmp_path / "o" / "tasks.jsonl").exists()
        assert main(["run", str(cfg_path)]) == 0
        want = self.analyze(self.run_store(tmp_path / "ref"), tmp_path / "ref_reports")
        assert self.analyze(tmp_path / "o", tmp_path / "reports") == want

    def test_pooled_mode_recorded(self, tmp_path):
        store = self.run_store(tmp_path, n_agents_list=[2])
        assert main(["analyze", str(store), "--mode", "pooled"]) == 0
        rows = json.loads((store / "reports" / "summaries.json").read_text())
        assert all(r["mode"] == "pooled" for r in rows)


class TestUnwritableOutput:
    """An output that cannot be written exits 2 with its path, as an unreadable input does."""

    def argv(self, command, tmp_path):
        missing = str(tmp_path / "missing" / "out")
        if command == "kstar":
            emb = tmp_path / "emb.jsonl"
            write_jsonl(emb, [{"id": "a", "vector": [1.0, 0.0]}])
            return ["kstar", str(emb), "--output", missing]
        if command == "simulate":
            return ["simulate", "--alpha", "0.3", "--trials", "10", "--output", missing]
        if command == "bounds":
            joint = tmp_path / "joint.json"
            joint.write_text(bsc_views_joint(0.2, 2).to_json())
            return ["bounds", str(joint), "--output", missing]
        if command == "fit-alpha":
            curve = tmp_path / "curve.csv"
            curve.write_text("1,0.5\n2,0.75\n3,0.875\n")
            return ["fit-alpha", str(curve), "--output", missing]
        if command == "run":
            cfg_path, _ = base_config(tmp_path, n_agents_list=[2])
            # the manifest is written aside, then renamed into place
            (tmp_path / "store" / "manifest.json.tmp").mkdir(parents=True)
            return ["run", str(cfg_path)]
        cfg_path, _ = base_config(tmp_path, n_agents_list=[2])
        assert main(["run", str(cfg_path)]) == 0
        store = tmp_path / "store"
        if command == "analyze":
            (tmp_path / "out").write_text("a file, not a directory")
            return ["analyze", str(store), "--output", str(tmp_path / "out")]
        # a store analyze cannot write its reports into, such as a read-only one
        (store / "reports").write_text("a file, not a directory")
        return ["analyze", str(store)]

    @pytest.mark.parametrize("command", ["kstar", "simulate", "bounds", "fit-alpha", "run",
                                         "analyze", "analyze-into-store"])
    def test_exits_2_naming_the_path(self, tmp_path, capsys, command):
        argv = self.argv(command, tmp_path)
        capsys.readouterr()
        code, out = run_cli(*argv, capsys=capsys)
        assert code == 2
        assert out.err.startswith("error: [Errno ")
        assert str(tmp_path) in out.err
        assert "Traceback" not in out.err

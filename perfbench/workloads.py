"""The benchmark workloads: their inputs, the CLI steps of one sample, and
the checks on each sample's outputs.

A workload's `setup` builds every input from the seed and returns a context;
`steps` lays out one sample in its own empty directory; `check` reads that
sample's outputs and returns (failed operations, problems, extra per-layer
values measured from the outputs).  Checks recount from the files the
program wrote and never pin a value a correct optimisation could change.
"""

import collections
import csv
import glob
import hashlib
import http.client
import json
import math
import os
import subprocess
import sys

import numpy as np

import fixtures
import stub
from fixtures import LAYERS, N_AGENTS

HERE = os.path.dirname(os.path.abspath(__file__))
SUM_N = sum(N_AGENTS)
REPORTS = ("summaries.csv", "summaries.json", "accuracy_vs_n.csv", "marginal_gains.csv",
           "agents_to_match.csv", "boundary.csv", "kstar_vs_accuracy.csv")
STAT_REPORTS = ("permutation_report.json", "regression_report.json")
TOL = 1e-9


def _run_config(sdir, ctx, workflow, backend, rounds=None):
    cfg = os.path.join(sdir, "config.json")
    fixtures.write_run_config(cfg, ctx["dataset"], os.path.join(sdir, "out"), workflow,
                              "L4", ctx["seed"], backend, rounds)
    return cfg


def _read_store(out_dir):
    """Transcripts of every store file in `out_dir`, and the files' bytes."""
    transcripts, blob = [], b""
    for path in sorted(glob.glob(os.path.join(out_dir, "*.jsonl"))):
        if os.path.basename(path) == "embeddings.jsonl":
            continue
        with open(path, "rb") as fh:
            data = fh.read()
        blob += data
        transcripts += [json.loads(line) for line in data.splitlines() if line.strip()]
    return transcripts, blob


class Workload:
    def stop(self, ctx):
        """Release what `setup` started."""


class RunWorkload(Workload):
    """`masinfo run`, L4, N in {2,4,8,16}; an operation is one chat call."""

    tasks = 0
    rounds = 1
    dim = 0

    def ops(self, ctx):
        return self.tasks * SUM_N * self.rounds

    def check_embeddings(self, transcripts, data):
        """Problems with embeddings.jsonl: one row of width `dim` per call of
        every valid transcript, with id `<task_id>:<call_index>`."""
        expected = collections.Counter(f"{t['task_id']}:{c['call_index']}"
                                       for t in transcripts if not t["invalid"]
                                       for c in t["calls"])
        rows = [json.loads(line) for line in data.splitlines() if line.strip()]
        found = collections.Counter(r["id"] for r in rows)
        problems = []
        if found != expected:
            problems.append(f"embeddings.jsonl holds {len(rows)} rows, "
                            f"{sum((expected - found).values())} missing, "
                            f"{sum((found - expected).values())} unexpected")
        widths = {len(r["vector"]) for r in rows}
        if widths - {self.dim}:
            problems.append(f"embedding widths {sorted(widths)}, expected {self.dim}")
        return problems

    def check_run(self, ctx, sdir, codes):
        """(failed, problems, extras, transcripts, bytes of every store file)."""
        out = os.path.join(sdir, "out")
        transcripts, blob = _read_store(out)
        emb_path = os.path.join(out, "embeddings.jsonl")
        emb = b""
        if os.path.exists(emb_path):
            with open(emb_path, "rb") as fh:
                emb = fh.read()
        calls = [c for t in transcripts for c in t["calls"]]
        errors = sum(1 for c in calls if c["error"] is not None)
        invalid = sum(1 for t in transcripts if t["invalid"])
        problems = []
        if codes != [0]:
            problems.append(f"run exited {codes}")
        if len(calls) != self.ops(ctx):
            problems.append(f"{len(calls)} calls, expected {self.ops(ctx)}")
        if invalid:
            problems.append(f"{invalid} invalid transcripts")
        emb_problems = self.check_embeddings(transcripts, emb)
        problems += emb_problems
        missing = max(0, self.ops(ctx) - len(calls))
        failed = (self.ops(ctx) if codes != [0] or emb_problems
                  else min(self.ops(ctx), errors + missing))
        extras = {
            "harness.store.bytes_written": len(blob),
            "cli.run.emb_bytes_written": len(emb),
        }
        return failed, problems, extras, transcripts, blob + emb


class RunDebate(RunWorkload):
    name = "run-debate"
    tasks = 40
    rounds = 4
    dim = 64

    def setup(self, wdir, seed):
        dataset = os.path.join(wdir, "tasks.jsonl")
        fixtures.write_tasks(dataset, self.tasks, seed)
        return {"seed": seed, "dataset": dataset, "digest": None}

    def steps(self, ctx, sdir):
        backend = {"kind": "mock", "dim": self.dim}
        return [{"cli": ["run", _run_config(sdir, ctx, "debate", backend, self.rounds)]}]

    def check(self, ctx, sdir, codes):
        failed, problems, extras, _, blob = self.check_run(ctx, sdir, codes)
        digest = hashlib.sha256(blob).hexdigest()
        if ctx["digest"] is None:
            ctx["digest"] = digest
        elif digest != ctx["digest"]:
            problems.append("store files differ between samples")
            failed = self.ops(ctx)
        return failed, problems, extras


class RunHttp(RunWorkload):
    name = "run-http"
    tasks = 8
    dim = stub.DIM

    def setup(self, wdir, seed):
        dataset = os.path.join(wdir, "tasks.jsonl")
        fixtures.write_tasks(dataset, self.tasks, seed)
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "stub.py"), "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True)
        ctx = {"seed": seed, "dataset": dataset, "stub": proc}
        try:
            ctx["port"] = int(proc.stdout.readline())
            ctx["stats"] = self._stats(ctx)
        except (ValueError, OSError):
            self.stop(ctx)
            raise
        return ctx

    def _stats(self, ctx):
        conn = http.client.HTTPConnection("127.0.0.1", ctx["port"], timeout=10)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def steps(self, ctx, sdir):
        url = f"http://127.0.0.1:{ctx['port']}/v1"
        backend = {"kind": "openai", "chat_url": url, "embed_url": url,
                   "embed_model": "stub-embed"}
        return [{"cli": ["run", _run_config(sdir, ctx, "vote", backend)]}]

    def check(self, ctx, sdir, codes):
        failed, problems, extras, transcripts, _ = self.check_run(ctx, sdir, codes)
        before, after = ctx["stats"], self._stats(ctx)
        ctx["stats"] = after
        delta = {k: after[k] - before[k] for k in ("requests", "chat", "embeddings", "service_s")}
        chat_calls = sum(len(t["calls"]) for t in transcripts)
        embed_calls = sum(1 for t in transcripts if not t["invalid"])
        if delta["chat"] < chat_calls or delta["embeddings"] < embed_calls:
            problems.append(f"stub saw {delta}, transcripts hold {chat_calls} calls")
        if after["inflight_max"] > fixtures.nproc():
            problems.append(f"{after['inflight_max']} requests in flight, limit {fixtures.nproc()}")
        extras.update({
            "harness.http.requests": delta["requests"],
            "harness.http.service_s": delta["service_s"],
            "harness.http.retries": delta["requests"] - chat_calls - embed_calls,
        })
        return failed, problems, extras

    def stop(self, ctx):
        proc = ctx["stub"]
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()


class AnalyzeQuestion(Workload):
    """Per-question `masinfo analyze` over the four L1-L4 debate stores
    `masinfo run` wrote, with realistic embeddings; an operation is one
    transcript analysed."""

    name = "analyze-question"
    rounds = 4
    tasks = 2
    dim = 1536

    def setup(self, wdir, seed):
        from masinfo import cli

        dataset = os.path.join(wdir, "tasks.jsonl")
        fixtures.write_tasks(dataset, self.tasks, seed)
        stores = []
        for layer in LAYERS:
            store = os.path.join(wdir, f"store_{layer}")
            cfg = os.path.join(wdir, f"config_{layer}.json")
            fixtures.write_run_config(cfg, dataset, store, "debate", layer, seed,
                                      {"kind": "mock", "dim": 2}, self.rounds)
            if cli.main(["run", cfg]) != 0:
                raise RuntimeError(f"fixture run for {layer} failed")
            fixtures.write_embeddings(store, self.dim, seed)
            stores.append(store)
        transcripts = [t for s in stores for t in _read_store(s)[0] if not t["invalid"]]
        groups = {}
        for t in transcripts:
            key = (t["dataset"], t["workflow"], t["layer"], t["n_agents"])
            hits, count = groups.get(key, (0, 0))
            right = t["final_answer"] is not None and t["final_answer"] == t["gold_answer"]
            groups[key] = (hits + right, count + 1)
        return {"seed": seed, "stores": stores, "transcripts": len(transcripts),
                "accuracy": {k: h / c for k, (h, c) in groups.items()}}

    def ops(self, ctx):
        return ctx["transcripts"]

    def steps(self, ctx, sdir):
        return [{"cli": ["analyze", ctx["stores"][0], "--merge", *ctx["stores"][1:],
                         "--seed", str(ctx["seed"]), "--output", os.path.join(sdir, "reports")]}]

    def check(self, ctx, sdir, codes):
        reports = os.path.join(sdir, "reports")
        problems = [] if codes == [0] else [f"analyze exited {codes}"]
        wanted = REPORTS
        # analyze rightly skips the stats reports when every config has the
        # same accuracy, as on an occasional seed where all are wrong
        if len(set(ctx["accuracy"].values())) > 1:
            wanted += STAT_REPORTS
        missing = [r for r in wanted if not os.path.exists(os.path.join(reports, r))]
        if missing:
            problems.append(f"missing reports {missing}")
        rows = []
        if not missing:
            with open(os.path.join(reports, "summaries.json")) as fh:
                rows = json.load(fh)
        seen = set()
        for row in rows:
            key = (row["dataset"], row["workflow"], row["layer"], row["n_agents"])
            seen.add(key)
            expected = ctx["accuracy"].get(key)
            if expected is None or abs(row["accuracy"] - expected) > TOL:
                problems.append(f"{key}: accuracy {row['accuracy']}, recount {expected}")
            n = row["n_agents"] * self.rounds
            for col in ("k_star", "k_star_c", "k_star_w"):
                v = row[col]
                if v is not None and not (1.0 - TOL <= v <= n + TOL):
                    problems.append(f"{key}: {col} = {v} outside [1, {n}]")
        if rows and seen != set(ctx["accuracy"]):
            problems.append(f"summaries cover {len(seen)} configs, stores {len(ctx['accuracy'])}")
        return (ctx["transcripts"] if problems else 0), problems, {}


class Toolkit(Workload):
    """simulate, bounds and fit-alpha; an operation is one CLI command."""

    name = "toolkit"
    trials = 300_000
    k_max = 10
    bits = 16
    views = 12

    def setup(self, wdir, seed):
        from masinfo import info_theory

        rng = np.random.default_rng([seed, 4])
        alpha = float(rng.uniform(0.15, 0.35))
        noise = float(rng.uniform(0.1, 0.3))
        joint = os.path.join(wdir, "joint.json")
        with open(joint, "w") as fh:
            fh.write(info_theory.bsc_views_joint(noise, self.views).to_json())
        return {"seed": seed, "alpha": alpha, "joint": joint}

    def ops(self, ctx):
        return 3

    def steps(self, ctx, sdir):
        p = lambda name: os.path.join(sdir, name)  # noqa: E731
        return [
            {"cli": ["simulate", "--alpha", repr(ctx["alpha"]), "--k-max", str(self.k_max),
                     "--m", str(self.bits), "--trials", str(self.trials),
                     "--seed", str(ctx["seed"]), "--output", p("curve.csv")]},
            {"recovered_curve": [p("curve.csv"), p("recovered.csv")]},
            {"cli": ["bounds", ctx["joint"], "--output", p("bounds.json")]},
            {"cli": ["fit-alpha", p("recovered.csv"), "--output", p("fit.json")]},
        ]

    def check(self, ctx, sdir, codes):
        alpha = ctx["alpha"]
        problems = []
        bad = [i for i, c in enumerate(codes) if c != 0]
        if bad:
            problems.append(f"commands {bad} exited {codes}")
        if 0 not in bad:
            with open(os.path.join(sdir, "curve.csv")) as fh:
                for r in csv.DictReader(fh):
                    k, mean, se = int(r["k"]), float(r["mean_residual_fraction"]), float(r["stderr"])
                    if abs(mean - (1.0 - alpha) ** k) > 5 * se + TOL:
                        problems.append(f"simulate: k={k} mean {mean} vs {(1 - alpha) ** k}")
                        bad.append(0)
        if 1 not in bad:
            with open(os.path.join(sdir, "bounds.json")) as fh:
                report = json.load(fh)
            if report["i_mas"] > report["h_y_given_x"] + TOL:
                problems.append(f"bounds: i_mas {report['i_mas']} > H(Y|X) {report['h_y_given_x']}")
                bad.append(1)
        if 2 not in bad:
            with open(os.path.join(sdir, "fit.json")) as fh:
                alpha_hat = json.load(fh)["alpha_hat"]
            # the recovered fraction is 1 - (1-alpha)^k = 1 - e^(-alpha_hat k)
            if abs((1.0 - math.exp(-alpha_hat)) - alpha) > 0.01:
                problems.append(f"fit-alpha: alpha_hat {alpha_hat} does not recover {alpha}")
                bad.append(2)
        return len(set(bad)), problems, {}


WORKLOADS = {w.name: w for w in (RunDebate(), RunHttp(), AnalyzeQuestion(), Toolkit())}

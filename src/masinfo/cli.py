"""Command-line entry point.

Subcommands: kstar, simulate, run, analyze, bounds, fit-alpha.
Exit codes: 0 success, 2 usage/validation error, 3 backend/environment error.
"""

import argparse
import collections
import contextlib
import csv
import hashlib
import json
import os
import sys
import time

from masinfo import analysis, coverage, harness, info_theory, spectral

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ENV = 3


def _fail(message, code=EXIT_USAGE):
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_out(text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# kstar


def _nonblank_line(path, index):
    """1-based number of the `index`-th nonblank line of `path`, as the loader counts rows."""
    with open(path, "rb") as fh:
        return [k for k, line in enumerate(fh, start=1) if line.strip()][index]


def cmd_kstar(args):
    try:
        ids, raw = spectral.load_embeddings_jsonl(args.embeddings)
        try:
            emb = spectral.normalize_embeddings(raw)
        except spectral.ZeroNormVector as exc:
            raise ValueError(f"embedding {ids[exc.index]} at line "
                             f"{_nonblank_line(args.embeddings, exc.index)} has norm < "
                             f"{spectral.ZERO_NORM_TOL}") from None
        summary = spectral.k_star(emb)
        result = json.loads(summary.to_json())
        if args.mask:
            with open(args.mask) as fh:
                mask = json.load(fh)
            # bool("false") is True: only JSON booleans are read as booleans
            if (not isinstance(mask, list) or len(mask) != emb.n
                    or not all(isinstance(m, bool) for m in mask)):
                raise ValueError(f"mask must be a JSON list of {emb.n} booleans")
            c, w = spectral.k_star_conditioned(emb, mask)
            result["k_star_c"] = c
            result["k_star_w"] = w
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    _write_out(json.dumps(result), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args):
    try:
        params = coverage.CoverageParams.equal_bits(
            alpha=args.alpha, num_channels=args.k_max, seed=args.seed, num_bits=args.m
        )
        curve = coverage.simulate_coverage(params, trials=args.trials)
    except coverage.BadParams as exc:
        return _fail(str(exc))
    text = curve.to_json() if args.format == "json" else curve.to_csv()
    _write_out(text, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds


def cmd_bounds(args):
    try:
        with open(args.joint) as fh:
            joint = info_theory.DiscreteJoint.from_json(json.load(fh))
        report = info_theory.usable_evidence(joint, n_calls=args.calls)
    except (ValueError, OSError, KeyError) as exc:
        return _fail(str(exc))
    _write_out(report.to_json(), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit-alpha


def cmd_fit_alpha(args):
    try:
        points, header_allowed = [], True
        with open(args.curve) as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row or not row[0].strip():
                    continue
                try:
                    points.append((float(row[0]), float(row[1])))
                except (ValueError, IndexError):
                    if not header_allowed:
                        raise ValueError(f"malformed row at line {reader.line_num}: "
                                         f"expected two numbers, got {row!r}") from None
                # only the first nonblank row may be a header
                header_allowed = False
        alpha_hat, rss = coverage.fit_alpha(points)
    except (coverage.DegenerateCurve, ValueError, OSError) as exc:
        return _fail(str(exc))
    _write_out(json.dumps({"alpha_hat": alpha_hat, "rss": rss}), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# run


def _config_hash(config):
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def _check_count(value, name):
    # bool is an int subclass; `true` is no count
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _check_names(value, name):
    # a bare string would be split into one-character names
    if not isinstance(value, list) or not value or not all(
            isinstance(v, str) and v for v in value):
        raise ValueError(f"{name} must be a nonempty list of nonempty strings, got {value!r}")


def _load_config(path):
    with open(path) as fh:
        cfg = json.load(fh)
    for key in ("dataset_path", "workflow", "layer", "n_agents_list", "model_pool",
                "seed", "output_dir", "backend"):
        if key not in cfg:
            raise ValueError(f"config missing required field {key!r}")
    if cfg["layer"] not in harness.LAYERS:
        raise ValueError(f"invalid layer {cfg['layer']!r}")
    if not isinstance(cfg["n_agents_list"], list) or not cfg["n_agents_list"]:
        raise ValueError("n_agents_list must be a nonempty list")
    for n in cfg["n_agents_list"]:
        _check_count(n, "each n_agents_list entry")
    for key in ("rounds", "concurrency_limit"):
        if cfg.get(key) is not None:
            _check_count(cfg[key], key)
    _check_names(cfg["model_pool"], "model_pool")
    if "persona_pool" in cfg:
        _check_names(cfg["persona_pool"], "persona_pool")
    specs = [harness.WorkflowSpec(cfg["workflow"], n, cfg.get("rounds"))
             for n in cfg["n_agents_list"]]
    if not os.path.exists(cfg["dataset_path"]):
        raise ValueError(f"dataset not found: {cfg['dataset_path']}")
    if cfg.get("persona_catalog_path") and not os.path.exists(cfg["persona_catalog_path"]):
        raise ValueError(f"persona catalog not found: {cfg['persona_catalog_path']}")
    catalog = dict(harness.DEFAULT_PERSONAS)
    if cfg.get("persona_catalog_path"):
        catalog = harness.load_persona_catalog(cfg["persona_catalog_path"])
    plan = harness.DiversityPlan(
        layer=cfg["layer"],
        model_pool=tuple(cfg["model_pool"]),
        persona_pool=tuple(cfg.get("persona_pool", list(catalog))),
        persona_catalog=catalog,
    )
    # build every pool now, so a config no pool fits fails before output_dir exists
    for spec in specs:
        for agent in plan.configs(spec.num_agents):
            plan.persona_text(agent.persona_id)
    return cfg, specs, plan


def _build_backends(cfg):
    b = cfg["backend"]
    if not isinstance(b, dict):
        raise ValueError(f"backend must be a JSON object, got {b!r}")
    for key in ("chat_url", "embed_url", "embed_model", "api_key_env"):
        if key in b and not isinstance(b[key], str):
            raise ValueError(f"backend {key} must be a string, got {b[key]!r}")
    kind = b.get("kind", "mock")
    if kind == "mock":
        dim = b.get("dim", 8)
        _check_count(dim, "backend dim")
        chat = harness.MockChatBackend(seed=cfg["seed"])
        embed = harness.MockEmbeddingBackend(dim=dim, seed=cfg["seed"])
        return chat, embed
    if kind == "openai":
        if not b.get("chat_url"):
            raise ValueError("backend kind 'openai' needs a chat_url")
        # secrets come only from the environment variable named in config
        api_key = os.environ.get(b.get("api_key_env", ""), None)
        chat = harness.OpenAIChatBackend(b["chat_url"], api_key=api_key)
        embed = None
        if b.get("embed_url"):
            embed = harness.OpenAIEmbeddingBackend(
                b["embed_url"], b.get("embed_model", ""), api_key=api_key
            )
        return chat, embed
    raise ValueError(f"unknown backend kind {kind!r}")


def _read_manifest(path):
    """The manifest object in `path`, or None when there is no such file."""
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        return None
    except ValueError:  # torn, or not JSON at all
        manifest = None
    if not isinstance(manifest, dict):
        raise ValueError(f"{path} is not a JSON object")
    return manifest


def cmd_run(args):
    # everything that can reject the input runs before output_dir exists;
    # the backends open no connection until their first request
    try:
        cfg, specs, plan = _load_config(args.config)
        tasks = harness.load_tasks_jsonl(cfg["dataset_path"])
        chat, embed = _build_backends(cfg)
        # equal specs share a store; a resumed run reads its stores here, so a
        # malformed line stops it before any call
        stores = {spec: harness.TranscriptStore(os.path.join(
            cfg["output_dir"], f"{cfg['workflow']}_{cfg['layer']}_N{spec.num_agents}.jsonl"))
            for spec in specs}
        done = {spec: store.task_ids() for spec, store in stores.items()}
        manifest_path = os.path.join(cfg["output_dir"], "manifest.json")
        old = _read_manifest(manifest_path)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))

    out_dir = cfg["output_dir"]
    chash = _config_hash(cfg)
    if old is not None and old.get("config_hash") != chash:
        return _fail("output_dir holds a run with a different config; resume refused")
    os.makedirs(out_dir, exist_ok=True)

    manifest = {
        "schema": 1,
        "config_hash": chash,
        "seed": cfg["seed"],
        "workflow": cfg["workflow"],
        "layer": cfg["layer"],
        "n_agents_list": cfg["n_agents_list"],
        "files": [os.path.basename(stores[spec].path) for spec in specs],
        "started": time.time(),
    }

    def write_manifest(status):
        # written before the first call as well, so a rerun after a crash
        # still meets the config check; a manifest without status is done.
        # Written aside and renamed over the old one, so a crash mid-write
        # leaves a whole manifest.
        tmp_path = manifest_path + ".tmp"
        with open(tmp_path, "w") as fh:
            json.dump({**manifest, "status": status}, fh, indent=2, sort_keys=True)
        os.replace(tmp_path, manifest_path)

    write_manifest("running")
    concurrency = cfg.get("concurrency_limit") or 4
    dataset_name = cfg.get("dataset_name", os.path.basename(cfg["dataset_path"]))
    all_invalid = not any(done.values())
    emb_path = os.path.join(out_dir, "embeddings.jsonl")
    jobs = [(spec, task) for spec, ids in done.items() for task in tasks
            if str(task["id"]) not in ids]

    with contextlib.ExitStack() as stack:
        for backend in (chat, embed):
            if hasattr(backend, "close"):
                stack.callback(backend.close)
        # closed before the backends: it waits for the calls still in flight
        results = stack.enter_context(contextlib.closing(
            harness.run_tasks(jobs, plan, chat, embed, concurrency, dataset_name)))
        emb_file = None  # opened on the first vectors, so a run without any writes no file
        for spec, t, vectors, error in results:
            if error is not None:
                print(f"warning: embeddings of task {t.task_id} (N={t.n_agents}) failed: "
                      f"{error}", file=sys.stderr)
            # the vectors land before the transcript: a crash between the
            # two leaves the task undone, and its rerun's rows win
            if vectors:
                emb_file = emb_file or stack.enter_context(open(emb_path, "a"))
                emb_file.write("".join(harness.embedding_row(i, v) + "\n"
                                       for i, v in zip(t.embedding_ids(), vectors)))
                emb_file.flush()
            stores[spec].append(t)
            if not t.invalid:
                all_invalid = False

    manifest["finished"] = time.time()
    write_manifest("done")
    if all_invalid:
        return _fail("backend unreachable: every transcript is invalid", EXIT_ENV)
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze


def _load_store_dir(store_dir):
    transcripts = []
    for name in sorted(os.listdir(store_dir)):
        if not name.endswith(".jsonl") or name == "embeddings.jsonl":
            continue
        transcripts.extend(harness.TranscriptStore(os.path.join(store_dir, name)))
    embeddings = None
    emb_path = os.path.join(store_dir, "embeddings.jsonl")
    if os.path.exists(emb_path):
        ids, raw = spectral.load_embeddings_jsonl(emb_path)
        embeddings = dict(zip(ids, raw))
        if len(embeddings) < len(ids):
            # ids name no N, so every N of one output_dir writes the same ones
            repeated = next(i for i, c in collections.Counter(ids).items() if c > 1)
            print(f"warning: {emb_path} repeats embedding id {repeated!r}; "
                  "each repeated id keeps its last row", file=sys.stderr)
    return transcripts, embeddings


def cmd_analyze(args):
    store_dirs = [args.store_dir] + (args.merge or [])
    # ids repeat across stores, so each transcript keeps its own store's vectors
    transcripts, embeddings = [], []
    try:
        for d in store_dirs:
            ts, emb = _load_store_dir(d)
            transcripts.extend(ts)
            embeddings.extend([emb or {}] * len(ts))
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    if not transcripts:
        return _fail("store contains no transcripts")
    if not any(embeddings):
        embeddings = None
        print("warning: no embeddings found; spectral columns omitted", file=sys.stderr)

    try:
        summaries = analysis.summarize_runs(transcripts, embeddings, mode=args.mode)
    except (analysis.MissingEmbeddings, ValueError) as exc:
        return _fail(str(exc))
    files, skipped = analysis.report_bundle(summaries, seed=args.seed)

    out_dir = args.output or os.path.join(args.store_dir, "reports")
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)
    for name, reason in skipped.items():
        print(f"note: {name} skipped: {reason}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser():
    p = argparse.ArgumentParser(prog="masinfo", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kstar", help="effective channel count from an embedding JSONL file")
    k.add_argument("embeddings")
    k.add_argument("--mask", help="JSON list of per-row correctness booleans")
    k.add_argument("--output")
    k.set_defaults(func=cmd_kstar)

    s = sub.add_parser("simulate", help="Monte Carlo evidence-coverage contraction curve")
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--m", type=int, default=16, help="number of evidence bits")
    s.add_argument("--k-max", type=int, default=10)
    s.add_argument("--trials", type=int, default=coverage.DEFAULT_TRIALS)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.add_argument("--output")
    s.set_defaults(func=cmd_simulate)

    b = sub.add_parser("bounds", help="information budget report for a joint JSON file")
    b.add_argument("joint")
    b.add_argument("--calls", type=int, default=None)
    b.add_argument("--output")
    b.set_defaults(func=cmd_bounds)

    f = sub.add_parser("fit-alpha", help="fit the coverage rate to a (k, fraction) CSV")
    f.add_argument("curve")
    f.add_argument("--output")
    f.set_defaults(func=cmd_fit_alpha)

    r = sub.add_parser("run", help="execute a vote/debate experiment from a config file")
    r.add_argument("config")
    r.set_defaults(func=cmd_run)

    a = sub.add_parser("analyze", help="report bundle from a transcript store directory")
    a.add_argument("store_dir")
    a.add_argument("--merge", nargs="*", help="additional store directories to merge")
    a.add_argument("--mode", choices=("per-question", "pooled"), default="per-question")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--output")
    a.set_defaults(func=cmd_analyze)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands: kstar, simulate, run, analyze, bounds, fit-alpha.
Exit codes: 0 success, 2 usage/validation error, 3 backend/environment error.
"""

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys

from masinfo import analysis, backends, coverage, harness, info_theory, spectral
from masinfo.store import RunStore

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ENV = 3


def _fail(message, code=EXIT_USAGE):
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_out(text, output):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
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
            emb = spectral.EmbeddingSet(raw)
        except spectral.ZeroNormVector as exc:
            raise ValueError(f"embedding {ids[exc.index]} at line "
                             f"{_nonblank_line(args.embeddings, exc.index)} has norm < "
                             f"{spectral.ZERO_NORM_TOL}") from None
        result = dataclasses.asdict(spectral.k_star(emb))
        if args.mask:
            with open(args.mask, encoding="utf-8") as fh:
                mask = json.load(fh)
            # bool("false") is True: only JSON booleans are read as booleans
            if (not isinstance(mask, list) or len(mask) != emb.n
                    or not all(isinstance(m, bool) for m in mask)):
                raise ValueError(f"mask must be a JSON list of {emb.n} booleans")
            c, w = spectral.k_star_conditioned(emb, mask)
            result["k_star_c"] = c
            result["k_star_w"] = w
    except ValueError as exc:
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
        with open(args.joint, encoding="utf-8") as fh:
            joint = info_theory.DiscreteJoint.from_json(fh.read())
        report = info_theory.usable_evidence(joint, n_calls=args.calls)
    except ValueError as exc:
        return _fail(str(exc))
    _write_out(json.dumps(dataclasses.asdict(report)), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit-alpha


def cmd_fit_alpha(args):
    try:
        points, header_allowed = [], True
        with open(args.curve, encoding="utf-8") as fh:
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
    except ValueError as exc:  # coverage.DegenerateCurve among them
        return _fail(str(exc))
    _write_out(json.dumps({"alpha_hat": alpha_hat, "rss": rss}), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# run


def _check_count(value, name):
    if not harness.is_count(value):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _check_names(value, name):
    # a bare string would be split into one-character names
    if not isinstance(value, list) or not value or not all(
            isinstance(v, str) and v for v in value):
        raise ValueError(f"{name} must be a nonempty list of nonempty strings, got {value!r}")
    # a name given twice is one type twice: ["m1", "m1"] would pass as an L3 pool
    for i, v in enumerate(value):
        if v in value[:i]:
            raise ValueError(f"{name} repeats {v!r}")


def _load_config(path):
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    # `in` on a JSON string would test for substrings
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
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
    # os.path would take a number for a file descriptor; every transcript
    # carries dataset_name, and analyze sorts merged stores' configs by it
    for key in ("dataset_path", "output_dir", "dataset_name"):
        if key in cfg and not (isinstance(cfg[key], str) and cfg[key]):
            raise ValueError(f"{key} must be a nonempty string, got {cfg[key]!r}")
    catalog_path = cfg.get("persona_catalog_path")
    if catalog_path is not None and not isinstance(catalog_path, str):
        raise ValueError(f"persona_catalog_path must be a string, got {catalog_path!r}")
    if "persona_pool" in cfg:
        _check_names(cfg["persona_pool"], "persona_pool")
    specs = [harness.WorkflowSpec(cfg["workflow"], n, cfg.get("rounds"))
             for n in cfg["n_agents_list"]]
    if not os.path.exists(cfg["dataset_path"]):
        raise ValueError(f"dataset not found: {cfg['dataset_path']}")
    if catalog_path and not os.path.exists(catalog_path):
        raise ValueError(f"persona catalog not found: {catalog_path}")
    catalog = dict(harness.DEFAULT_PERSONAS)
    if catalog_path:
        catalog = harness.load_persona_catalog(catalog_path)
    # every name, whatever the layer and N: the plan looks up only those its agents take
    for persona in cfg.get("persona_pool", ()):
        if persona not in catalog:
            raise ValueError(f"persona {persona!r} missing from catalog")
    plan = harness.DiversityPlan(
        layer=cfg["layer"],
        model_pool=tuple(cfg["model_pool"]),
        persona_pool=tuple(cfg.get("persona_pool", list(catalog))),
        persona_catalog=catalog,
    )
    # build every pool now, so a config no pool fits fails before output_dir exists
    for spec in specs:
        plan.agents(spec.num_agents)
    return cfg, specs, plan


def cmd_run(args):
    # everything that can reject the input runs before output_dir exists;
    # the backends open no connection until their first request
    try:
        cfg, specs, plan = _load_config(args.config)
        tasks = harness.load_tasks_jsonl(cfg["dataset_path"])
        chat, embed = backends.build(cfg["backend"], cfg["seed"])
        run = RunStore(cfg["output_dir"])
        done = run.begin(cfg, specs)
    except ValueError as exc:
        return _fail(str(exc))

    concurrency = cfg.get("concurrency_limit") or 4
    dataset_name = cfg.get("dataset_name", os.path.basename(cfg["dataset_path"]))
    all_invalid = not any(done.values())
    jobs = [(spec, task) for spec, ids in done.items() for task in tasks
            if str(task["id"]) not in ids]

    with contextlib.ExitStack() as stack:
        for backend in (chat, embed):
            if hasattr(backend, "close"):
                stack.callback(backend.close)
        stack.callback(run.close)
        # closed before the backends: it waits for the calls still in flight
        results = stack.enter_context(contextlib.closing(
            harness.run_tasks(jobs, plan, chat, embed, concurrency, dataset_name)))
        for spec, t, vectors, error in results:
            if error is not None:
                print(f"warning: embeddings of task {t.task_id} (N={t.n_agents}) failed: "
                      f"{error}", file=sys.stderr)
            run.append(spec, t, vectors)
            if not t.invalid:
                all_invalid = False

    run.finish()
    if all_invalid:
        return _fail("backend unreachable: every transcript is invalid", EXIT_ENV)
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze


def _score_stores(store_dirs, mode):
    """The task table of the stores `store_dirs`, merged: analysis.score of
    each store's transcripts with its own RunStore.rows loader, since ids
    repeat across stores, or None for a store without rows.  Their
    transcripts and the scorer's unit buffer go when it returns, so the
    reports are built without them."""
    stores = [(run, run.transcripts()) for run in map(RunStore, store_dirs)]
    if not any(ts for _, ts in stores):
        raise ValueError("store contains no transcripts")
    stores = [(ts, run.rows if ts and run.has_rows() else None) for run, ts in stores]
    if all(rows is None for _, rows in stores):
        print("warning: no embeddings found; spectral columns omitted", file=sys.stderr)
    return analysis.score(stores, mode)


def cmd_analyze(args):
    store_dirs = [args.store_dir] + (args.merge or [])
    # a store given twice would count each of its transcripts twice
    real = [os.path.realpath(d) for d in store_dirs]
    for i, r in enumerate(real):
        if r in real[:i]:
            return _fail(f"store directory {store_dirs[i]} repeats {store_dirs[real.index(r)]}")
    try:
        table = _score_stores(store_dirs, args.mode)
    except (analysis.MissingEmbeddings, ValueError) as exc:
        return _fail(str(exc))
    summaries = analysis.summarize_table(table)
    files, skipped = analysis.report_bundle(summaries, seed=args.seed)

    out_dir = args.output or os.path.join(args.store_dir, "reports")
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    for name, reason in skipped.items():
        # a report an earlier analyze wrote here would stand beside summaries it does not match
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
        print(f"note: {name} skipped: {reason}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        # numpy's generators take no negative seed
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


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
    a.add_argument("--seed", type=_non_negative_int, default=0)
    a.add_argument("--output")
    a.set_defaults(func=cmd_analyze)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except OSError as exc:  # an input that cannot be read or an output that cannot be written
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())

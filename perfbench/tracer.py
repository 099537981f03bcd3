"""In-memory spans around masinfo's public functions, for the traced run.

The program itself records nothing.  `Tracer.install` replaces each traced
function with a wrapper in every masinfo module that holds it, so callers that
imported a name directly (analysis does `from masinfo.spectral import k_star`)
reach the wrapper too.  Methods are wrapped on their class.  A name that no
longer exists is skipped, and its layer then reads 0.

A span is [name, start, end, parent, task, thread, attrs]; times come from
time.perf_counter.  Spans stay in memory until `dump`.
"""

import functools
import json
import os
import threading
import time

from masinfo import analysis, cli, coverage, harness, info_theory, spectral

MODULES = (analysis, cli, coverage, harness, info_theory, spectral)
WORKFLOW = "harness.workflow"


def _eig_attrs(args, kwargs, result):
    shape = getattr(getattr(args[0], "entries", args[0]), "shape", ())
    n = int(shape[-1]) if shape else 0
    batch = 1
    for s in shape[:-2]:
        batch *= int(s)
    return {"n": n, "batch": batch}


def _store_bytes(args, kwargs, result):
    path = getattr(args[0], "path", None)
    return {"bytes": os.path.getsize(path) if path and os.path.exists(path) else 0}


def _simulate_attrs(args, kwargs, result):
    params = args[0]
    trials = args[1] if len(args) > 1 else kwargs.get("trials", coverage.DEFAULT_TRIALS)
    return {"draws": int(trials) * params.num_channels * params.num_bits}


# (owner, attribute, span name, attrs from (args, kwargs, result))
SPANS = (
    (spectral, "load_embeddings_jsonl", "spectral.load", lambda a, k, r: {"rows": len(r[0])}),
    (spectral, "normalize_embeddings", "spectral.normalize", None),
    (spectral, "gram_matrix", "spectral.gram", None),
    (spectral, "symmetric_eigenvalues", "spectral.eigensolve", _eig_attrs),
    (spectral, "k_star", "spectral.k_star", None),
    (spectral, "k_star_conditioned", "spectral.k_star_conditioned", None),
    (spectral, "mean_pairwise_cosine", "spectral.mean_cosine", None),
    (analysis, "summarize_runs", "analysis.summarize", None),
    (analysis, "permutation_test", "analysis.permutation", None),
    (analysis, "ols_incremental_r2", "analysis.regression", None),
    (harness, "run_vote", WORKFLOW, None),
    (harness, "run_debate", WORKFLOW, None),
    (harness, "fetch_embeddings", "harness.embed", None),
    (harness.TranscriptStore, "append", "harness.store.append", None),
    (harness.TranscriptStore, "__iter__", "harness.store.read", _store_bytes),
    (coverage, "simulate_coverage", "coverage.simulate", _simulate_attrs),
    (coverage, "fit_alpha", "coverage.fit_alpha", None),
    (info_theory, "usable_evidence", "info_theory.usable_evidence", None),
)

# Called too often for a span each: counted only.
COUNTS = (
    (info_theory, "conditional_mutual_information", "info_theory.cmi"),
    (info_theory.DiscreteJoint, "entropy", "info_theory.entropy"),
    (info_theory.DiscreteJoint, "condition_on", "info_theory.condition_on"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open_workflows = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, task=None):
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            elif self._open_workflows:
                # A thread with no open span is an executor worker issuing
                # calls for the workflow that is running.
                parent = self._open_workflows[-1]
            else:
                parent = None
            if task is None and parent is not None:
                task = self.spans[parent][4]
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, task,
                               threading.get_ident(), {}])
            if name == WORKFLOW:
                self._open_workflows.append(sid)
        stack.append(sid)
        return sid

    def end(self, sid, attrs=None):
        span = self.spans[sid]
        span[2] = time.perf_counter()
        if attrs:
            span[6].update(attrs)
        self._stack().pop()
        if span[0] == WORKFLOW:
            with self._lock:
                self._open_workflows.remove(sid)

    def _span_wrapper(self, fn, name, attrs_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.begin(name, str(args[0]["id"]) if name == WORKFLOW else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(sid, {"error": type(exc).__name__})
                raise
            tracer.end(sid, attrs_of(args, kwargs, result) if attrs_of else None)
            return result

        return traced

    def _count_wrapper(self, fn, name):
        tracer = self
        tracer.counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, owner, attr, wrapper_of):
        original = owner.__dict__.get(attr)
        if original is None:
            return
        wrapper = wrapper_of(original)
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for module in MODULES:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def install(self):
        for owner, attr, name, attrs_of in SPANS:
            self._replace(owner, attr, lambda fn: self._span_wrapper(fn, name, attrs_of))
        for owner, attr, name in COUNTS:
            self._replace(owner, attr, lambda fn: self._count_wrapper(fn, name))
        # every chat backend class the harness defines
        for cls in vars(harness).values():
            if isinstance(cls, type) and callable(cls.__dict__.get("chat")):
                self._replace(cls, "chat", lambda fn: self._span_wrapper(fn, "harness.chat", None))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

"""Seeded inputs for the benchmark workloads.

Every file written here is a pure function of the workload seed: the same
seed gives byte-identical tasks, configs, stores and embedding files.
"""

import hashlib
import json
import math
import os

import numpy as np

LAYERS = ("L1", "L2", "L3", "L4")
N_AGENTS = (2, 4, 8, 16)
MODELS = ("model-a", "model-b", "model-c")
PERSONAS = ("mathematician", "logician", "engineer", "skeptic", "statistician")
LETTERS = "ABCD"
WORDS = (
    "river", "ledger", "orbit", "signal", "harvest", "lattice", "verdict", "glacier",
    "beacon", "quarry", "tariff", "enzyme", "voltage", "canopy", "parcel", "mandate",
)

# Weights of the embedding model in write_embeddings.  With these the
# per-question K* of a debate transcript at width 1536 runs from about 1.3
# (8 calls) to 1.6 (64 calls), the low range the paper reports.
ANSWER_WEIGHT = 0.2
AGENT_WEIGHT = 0.15
NOISE_WEIGHT = 0.2


def nproc():
    return len(os.sched_getaffinity(0))


def write_tasks(path, count, seed):
    """`count` four-choice tasks with seeded wording and gold letters."""
    rng = np.random.default_rng([seed, 1])
    with open(path, "w") as fh:
        for i in range(count):
            w = [WORDS[j] for j in rng.integers(len(WORDS), size=6)]
            task = {
                "id": f"q{i:04d}",
                "question": f"Given that the {w[0]} sets the {w[1]}, which claim about "
                            f"the {w[2]} follows?",
                "choices": [f"the {w[3]} rises", f"the {w[4]} holds", f"the {w[5]} falls",
                            "none of these"],
                "answer": LETTERS[int(rng.integers(len(LETTERS)))],
            }
            fh.write(json.dumps(task) + "\n")


def write_run_config(path, dataset, output_dir, workflow, layer, seed, backend, rounds=None):
    """A `masinfo run` config; concurrency is the number of usable CPUs."""
    cfg = {
        "dataset_path": str(dataset),
        "dataset_name": "bench",
        "workflow": workflow,
        "layer": layer,
        "n_agents_list": list(N_AGENTS),
        "model_pool": list(MODELS),
        "persona_pool": list(PERSONAS),
        "seed": seed,
        "output_dir": str(output_dir),
        "backend": backend,
        "concurrency_limit": nproc(),
    }
    if rounds is not None:
        cfg["rounds"] = rounds
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2)


def _direction(seed, key, dim):
    digest = hashlib.sha256(f"{seed}|{key}".encode()).digest()
    v = np.random.default_rng(int.from_bytes(digest[:8], "big")).standard_normal(dim)
    return v / np.linalg.norm(v)


def write_embeddings(store_dir, dim, seed):
    """Replace a store's embeddings.jsonl with seeded, realistic vectors.

    Each call's vector is a per-task consensus direction, plus a direction
    shared by calls that gave the same answer, plus one shared by calls of the
    same agent type, plus per-call noise, so no two rows repeat.  Rows are
    written in the order and with the ids `masinfo run` uses: store files in
    manifest order, transcripts in file order, `<task_id>:<call_index>`.
    """
    with open(os.path.join(store_dir, "manifest.json")) as fh:
        files = json.load(fh)["files"]
    rng = np.random.default_rng([seed, 2])
    cache = {}

    def direction(key):
        if key not in cache:
            cache[key] = _direction(seed, key, dim)
        return cache[key]

    noise_scale = NOISE_WEIGHT / math.sqrt(dim)
    with open(os.path.join(store_dir, "embeddings.jsonl"), "w") as out:
        for name in files:
            with open(os.path.join(store_dir, name)) as fh:
                for line in fh:
                    t = json.loads(line)
                    if t["invalid"]:
                        continue
                    tid = t["task_id"]
                    for c in t["calls"]:
                        v = (direction(("task", tid))
                             + ANSWER_WEIGHT * direction(("answer", tid, c["extracted_answer"]))
                             + AGENT_WEIGHT * direction(("agent", tid, c["agent_type_label"]))
                             + noise_scale * rng.standard_normal(dim))
                        out.write(json.dumps({"id": f"{tid}:{c['call_index']}",
                                              "vector": v.tolist()}) + "\n")

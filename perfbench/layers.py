"""Per-layer metrics derived from the spans one traced sample dumped.

A span's self time is its duration minus the part of it that its child spans
cover; children that overlap (chat calls on executor threads) count once.
"""

from collections import defaultdict

# span name -> the metrics reported for it
TIMED = {
    "spectral.load": ("calls", "total_s", "self_s"),
    "spectral.normalize": ("calls", "total_s", "self_s"),
    "spectral.gram": ("calls", "total_s", "self_s"),
    "spectral.k_star": ("calls", "total_s", "self_s"),
    "spectral.k_star_conditioned": ("calls", "total_s", "self_s"),
    "spectral.mean_cosine": ("calls", "total_s", "self_s"),
    "spectral.eigensolve": ("calls", "total_s"),
    "analysis.summarize": ("total_s", "self_s"),
    "analysis.permutation": ("total_s", "self_s"),
    "analysis.regression": ("total_s", "self_s"),
    "cli.analyze": ("self_s",),
    "cli.run": ("self_s",),
    "harness.workflow": ("calls", "total_s", "self_s"),
    "harness.chat": ("calls", "total_s"),
    "harness.embed": ("calls", "total_s"),
    "harness.store.append": ("calls", "total_s"),
    "harness.store.read": ("total_s",),
    "coverage.simulate": ("total_s",),
    "coverage.fit_alpha": ("total_s",),
    "info_theory.usable_evidence": ("total_s",),
}
COUNTED = ("info_theory.cmi", "info_theory.entropy", "info_theory.condition_on")
# measured by the workloads from the files and the stub, 0 where they do not apply
FROM_OUTPUTS = ("harness.store.bytes_written", "cli.run.emb_bytes_written",
                "harness.http.requests", "harness.http.service_s", "harness.http.retries")


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def percentile(values, q):
    """Nearest-rank percentile of a nonempty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(dump):
    spans = dump["spans"]
    children = defaultdict(list)
    by_name = defaultdict(list)
    for i, (name, _start, _end, parent, *_rest) in enumerate(spans):
        by_name[name].append(i)
        if parent is not None:
            children[parent].append(i)

    def self_time(i):
        _, start, end = spans[i][:3]
        inner = [(max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]]
        return (end - start) - covered([iv for iv in inner if iv[1] > iv[0]])

    m = dict.fromkeys(FROM_OUTPUTS, 0)
    for name, fields in TIMED.items():
        ids = by_name.get(name, [])
        values = {
            "calls": len(ids),
            "total_s": sum(spans[i][2] - spans[i][1] for i in ids),
        }
        if "self_s" in fields:
            values["self_s"] = sum(self_time(i) for i in ids)
        for field in fields:
            m[f"{name}.{field}"] = values[field]

    eig = [spans[i][6] for i in by_name.get("spectral.eigensolve", [])]
    # a call that raised carries no size
    m["spectral.eigensolve.n_max"] = max((a.get("n", 0) for a in eig), default=0)
    m["spectral.eigensolve.n3_sum"] = sum(a.get("batch", 1) * a.get("n", 0) ** 3 for a in eig)
    m["spectral.load.rows"] = sum(spans[i][6].get("rows", 0) for i in by_name.get("spectral.load", []))
    m["harness.store.bytes_read"] = sum(
        spans[i][6].get("bytes", 0) for i in by_name.get("harness.store.read", []))
    m["coverage.simulate.draws"] = sum(
        spans[i][6].get("draws", 0) for i in by_name.get("coverage.simulate", []))

    chats = by_name.get("harness.chat", [])
    latencies = [(spans[i][2] - spans[i][1]) * 1000.0 for i in chats]
    m["harness.chat.p50_ms"] = percentile(latencies, 50) if latencies else 0.0
    m["harness.chat.p99_ms"] = percentile(latencies, 99) if latencies else 0.0
    m["harness.chat.errors"] = sum(1 for i in chats if "error" in spans[i][6])
    busy = covered([(spans[i][1], spans[i][2]) for i in chats])
    m["harness.chat.inflight_mean"] = m["harness.chat.total_s"] / busy if busy else 0.0

    for name in COUNTED:
        m[f"{name}.calls"] = dump["counts"].get(name, 0)
    return m

import collections
import json
import math
import re
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from masinfo.analysis import (
    DegenerateInput,
    EmptySeries,
    MissingEmbeddings,
    NeedTwoPoints,
    RunSummary,
    agents_to_match,
    boundary_classification,
    marginal_gains,
    ols_incremental_r2,
    pearson_r,
    permutation_test,
    report_bundle,
    score,
    spearman_rho,
    summarize_table,
    _ranks,
    _shuffled_r,
)
from masinfo.backends import MockEmbeddingBackend
from masinfo.harness import (
    DiversityPlan,
    Transcript,
    WorkflowSpec,
    answer_matches,
    run_workflow,
)
from masinfo.spectral import (
    EmbeddingSet,
    k_star,
    k_star_conditioned,
    mean_pairwise_cosine,
)


def make_transcript(task_id, answers, gold="A", layer="L1", n=None, invalid=False,
                    workflow="vote", dataset="d1"):
    n = len(answers) if n is None else n
    calls = [
        {
            "call_index": i,
            "agent_type_label": "m|default|t0.7|p0.95|m1024",
            "round": 1,
            "raw_output": f"({a})" if a else None,
            "extracted_answer": a,
            "latency_ms": 0,
            "error": None,
        }
        for i, a in enumerate(answers)
    ]
    extracted = [a for a in answers if a is not None]
    final = min(
        (a for a in set(extracted) if extracted.count(a) == max(extracted.count(b) for b in extracted)),
        default=None,
    ) if extracted else None
    return Transcript(
        task_id=task_id,
        question="q",
        gold_answer=gold,
        workflow=workflow,
        layer=layer,
        n_agents=n,
        rounds=1,
        calls=calls,
        final_answer=final if not invalid else None,
        tie=False,
        invalid=invalid,
        timestamp="1970-01-01T00:00:00Z",
        dataset=dataset,
    )


def embeddings_for(task_id, vectors):
    return {f"{task_id}:{i}": list(v) for i, v in enumerate(vectors)}


def rows_of(mapping):
    """A store's rows_of lookup for score, from a mapping of
    "<task_id>:<call_index>" ids to raw vectors."""
    index = dict(zip(mapping, range(len(mapping))))
    rows = np.array([*mapping.values()], dtype=float)
    return lambda t: (rows, [index[i] for i in t.embedding_ids()])


def loaded(stores):
    """(transcripts, rows_of) pairs as score takes them: each lookup behind a loader."""
    return [(ts, None if lookup is None else lambda lookup=lookup: lookup)
            for ts, lookup in stores]


def summarize(stores, mode="per-question"):
    """The run summaries of (transcripts, rows_of) pairs as analyze scores them:
    score, then summarize_table."""
    return summarize_table(score(loaded(stores), mode))


class TestSummarize:
    def test_empty_is_empty(self):
        assert summarize([]) == []

    def test_accuracy_only_without_embeddings(self):
        ts = [make_transcript("t1", ["A", "A"]), make_transcript("t2", ["B", "B"])]
        (s,) = summarize([(ts, None)])
        assert s.accuracy == 0.5
        assert s.k_star is None and s.mean_cosine is None
        assert s.task_count == 2

    def test_orthogonal_all_correct(self):
        ts = [make_transcript("t1", ["A", "A"])]
        emb = embeddings_for("t1", np.eye(2))
        (s,) = summarize([(ts, rows_of(emb))])
        assert s.accuracy == 1.0
        assert abs(s.k_star - 2.0) < 1e-6
        assert abs(s.k_star_c - 2.0) < 1e-6
        assert s.k_star_w is None
        assert abs(s.mean_cosine) < 1e-9

    def test_mixed_correctness_matches_spectral_oracle(self):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((4, 6))
        ts = [make_transcript("t1", ["A", "A", "B", "B"])]
        (s,) = summarize([(ts, rows_of(embeddings_for("t1", vectors)))])
        oracle = k_star(EmbeddingSet(vectors)).k_star
        assert abs(s.k_star - oracle) < 1e-9

    def test_per_question_averages(self):
        ts = [make_transcript("t1", ["A", "A"]), make_transcript("t2", ["A", "A"])]
        emb = {**embeddings_for("t1", np.eye(2)),
               **embeddings_for("t2", [[1.0, 0.0], [1.0, 0.0]])}
        (s,) = summarize([(ts, rows_of(emb))], mode="per-question")
        assert abs(s.k_star - 1.5) < 1e-6  # mean of 2.0 and 1.0

    def test_pooled_stacks_groups(self):
        ts = [make_transcript("t1", ["A", "A"]), make_transcript("t2", ["A", "A"])]
        emb = {**embeddings_for("t1", np.eye(2)),
               **embeddings_for("t2", np.eye(2))}
        (s,) = summarize([(ts, rows_of(emb))], mode="pooled")
        # four vectors spanning two orthogonal directions, each doubled
        oracle = k_star(EmbeddingSet(np.vstack([np.eye(2), np.eye(2)]))).k_star
        assert abs(s.k_star - oracle) < 1e-9
        assert s.mode == "pooled"

    def test_invalid_transcripts_skipped(self):
        ts = [make_transcript("t1", ["A", "A"]),
              make_transcript("t2", [None, None], invalid=True)]
        (s,) = summarize([(ts, None)])
        assert s.task_count == 1

    def test_missing_embeddings_named(self):
        ts = [make_transcript("t1", ["A", "A"])]
        with pytest.raises(MissingEmbeddings) as exc:
            summarize([(ts, rows_of({"t1:0": [1.0, 0.0]}))])
        assert exc.value.task_id == "t1"

    def test_groups_split_by_config(self):
        ts = [make_transcript("t1", ["A", "A"], layer="L1"),
              make_transcript("t1", ["A", "A"], layer="L2")]
        assert len(summarize([(ts, None)])) == 2

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            summarize([], mode="median")

    @pytest.mark.parametrize("mode", ["per-question", "pooled"])
    def test_per_transcript_lookups(self, mode):
        # one task id in two stores, with different vectors in each
        ts = [make_transcript("t1", ["A", "A"], layer="L1"),
              make_transcript("t1", ["A", "A"], layer="L2")]
        lookups = [embeddings_for("t1", np.eye(2)),
                   embeddings_for("t1", [[1.0, 0.0], [1.0, 0.0]])]
        s1, s2 = summarize([([t], rows_of(m)) for t, m in zip(ts, lookups)], mode=mode)
        assert (s1.layer, s2.layer) == ("L1", "L2")
        assert abs(s1.k_star - 2.0) < 1e-6
        assert abs(s2.k_star - 1.0) < 1e-6

    def test_per_transcript_lookup_without_embeddings(self):
        # beside a store with rows, a store without any: None, or a lookup of no rows
        ts = [make_transcript("t1", ["A", "A"], layer="L1"),
              make_transcript("t2", ["A", "A"], layer="L2")]
        emb = {**embeddings_for("t1", np.eye(2)), **embeddings_for("t2", np.eye(2))}
        for bare in (None, rows_of({})):
            with pytest.raises(MissingEmbeddings) as exc:
                summarize([(ts[:1], rows_of(emb)), (ts[1:], bare)])
            assert exc.value.task_id == "t2"


def one_path_group(rng):
    """One N=4 group of transcripts with raw rows of assorted norms.

    Returns (transcripts, id -> vector mapping, raw rows, correctness mask) per
    transcript; the answers give mixed, all-correct, all-wrong and single-call
    tasks.
    """
    answers = [["A", "B", "A", "C"], ["A", "A", "A"], ["B", "C", "B", "B"], ["A"],
               ["C", "A", "A", "B", "A"]]
    ts, lookup, raws, masks = [], {}, [], []
    for k, ans in enumerate(answers):
        t = make_transcript(f"t{k}", ans, n=4)
        raw = rng.standard_normal((len(ans), 7)) * rng.uniform(0.1, 50.0, (len(ans), 1))
        ts.append(t)
        lookup.update(embeddings_for(t.task_id, raw))
        raws.append(raw)
        masks.append([a == "A" for a in ans])
    return ts, lookup, raws, masks


def columns_of(emb, mask):
    """(K*, K*_c, K*_w, mean cosine) straight from the spectral functions."""
    c, w = k_star_conditioned(emb, mask)
    cos = mean_pairwise_cosine(emb).mean_pairwise_cosine if emb.n >= 2 else None
    return k_star(emb).k_star, c, w, cos


class TestOnePath:
    """The run summaries against the spectral functions, bit for bit."""

    def test_per_question_is_the_mean_of_each_transcripts_columns(self):
        ts, lookup, raws, masks = one_path_group(np.random.default_rng(31))
        (s,) = summarize([(ts, rows_of(lookup))], mode="per-question")
        per_task = [columns_of(EmbeddingSet(r), m) for r, m in zip(raws, masks)]
        expected = [float(np.mean([v for v in col if v is not None]))
                    for col in zip(*per_task)]
        assert [s.k_star, s.k_star_c, s.k_star_w, s.mean_cosine] == expected

    def test_pooled_normalizes_the_groups_raw_rows_once(self):
        # normalizing each transcript's rows and then the stack again moves
        # some of these columns in their last bits
        ts, lookup, raws, masks = one_path_group(np.random.default_rng(32))
        (s,) = summarize([(ts, rows_of(lookup))], mode="pooled")
        expected = columns_of(EmbeddingSet(np.vstack(raws)), sum(masks, []))
        assert (s.k_star, s.k_star_c, s.k_star_w, s.mean_cosine) == expected

    @pytest.mark.parametrize("mode", ["per-question", "pooled"])
    def test_zero_norm_row_named_by_id(self, mode):
        ts = [make_transcript("t1", ["A", "A"]), make_transcript("t2", ["A", "A"])]
        emb = {**embeddings_for("t1", np.eye(2)), **embeddings_for("t2", [[1.0, 0.0], [0.0, 0.0]])}
        with pytest.raises(ValueError, match=r"^embedding t2:1 has norm < 1e-12$"):
            summarize([(ts, rows_of(emb))], mode=mode)

    def expected(self, raws, masks, mode):
        """The columns of the EmbeddingSets of `raws`, as summarize reports them."""
        if mode == "pooled":
            return columns_of(EmbeddingSet(np.vstack(raws)), sum(masks, []))
        per_task = [columns_of(EmbeddingSet(r), m) for r, m in zip(raws, masks)]
        return tuple(float(np.mean([v for v in col if v is not None])) for col in zip(*per_task))

    @staticmethod
    def table(ts, raws, order, size=None):
        """A store's rows_of holding every call row of `ts`: row j of the stack
        of `raws` at position order[j] of an array of `size` rows (as many as
        the stack by default), the others zero.  It gives each transcript's
        positions without building an id."""
        stacked = np.vstack(raws)
        rows = np.zeros((size or len(stacked), stacked.shape[1]))
        rows[order] = stacked
        ends = np.cumsum([len(r) for r in raws])
        positions = {t.task_id: order[end - len(r):end] for t, r, end in zip(ts, raws, ends)}
        return lambda t: (rows, positions[t.task_id])

    @pytest.mark.parametrize("mode", ["per-question", "pooled"])
    @pytest.mark.parametrize("layout", ["consecutive", "shuffled", "interleaved"])
    def test_store_table_of_any_row_order(self, mode, layout):
        ts, _, raws, masks = one_path_group(np.random.default_rng(33))
        total, size = sum(map(len, raws)), None
        if layout == "consecutive":
            order = np.arange(total)
        elif layout == "shuffled":  # inside an array of five more rows
            size = total + 5
            order = np.random.default_rng(34).permutation(size)[:total]
        else:  # the calls of t0 and t1 alternate in the store
            order = np.arange(total)
            order[:8] = [0, 2, 4, 6, 1, 3, 5, 7]
        table = score(loaded([(ts, self.table(ts, raws, order, size))]), mode)
        assert table == score(loaded([(ts, self.table(ts, raws, np.arange(total)))]), mode)
        (s,) = summarize_table(table)
        assert (s.k_star, s.k_star_c, s.k_star_w, s.mean_cosine) == self.expected(raws, masks, mode)

    @pytest.mark.parametrize("mode", ["per-question", "pooled"])
    def test_scoring_builds_no_embedding_id(self, mode, monkeypatch):
        # only the lookup matches calls to rows; analysis names a row by its
        # id only in the error of a zero-norm row
        ts, _, raws, masks = one_path_group(np.random.default_rng(40))
        total = sum(map(len, raws))
        lookup = self.table(ts, raws, np.random.default_rng(41).permutation(total + 3)[:total],
                            total + 3)

        def refuse(self):
            raise AssertionError("analysis built an embedding id")

        monkeypatch.setattr(Transcript, "embedding_ids", refuse)
        (s,) = summarize([(ts, lookup)], mode=mode)
        assert (s.k_star, s.k_star_c, s.k_star_w, s.mean_cosine) == self.expected(raws, masks, mode)

    def test_pooled_group_across_two_stores(self):
        ts, _, raws, masks = one_path_group(np.random.default_rng(35))
        first = self.table(ts[:2], raws[:2], np.arange(sum(map(len, raws[:2])))[::-1])
        second = self.table(ts[2:], raws[2:], np.arange(sum(map(len, raws[2:]))))
        (s,) = summarize([(ts[:2], first), (ts[2:], second)], mode="pooled")
        assert (s.k_star, s.k_star_c, s.k_star_w, s.mean_cosine) == self.expected(raws, masks,
                                                                                  "pooled")
        # the same group with the second store's lookup made from ids and vectors
        mapping = {}
        for t, raw in zip(ts[2:], raws[2:]):
            mapping.update(embeddings_for(t.task_id, raw))
        (m,) = summarize([(ts[:2], first), (ts[2:], rows_of(mapping))], mode="pooled")
        assert m == s

    @pytest.mark.parametrize("mode", ["per-question", "pooled"])
    def test_row_whose_squares_overflow(self, mode):
        ts, lookup, raws, masks = one_path_group(np.random.default_rng(36))
        raws[1][2] = [1e308, -1e308, 5e307, 0.0, 1.0, -1e200, 1e308]
        lookup.update(embeddings_for("t1", raws[1]))
        (s,) = summarize([(ts, rows_of(lookup))], mode=mode)
        assert (s.k_star, s.k_star_c, s.k_star_w, s.mean_cosine) == self.expected(raws, masks, mode)

    @pytest.mark.parametrize("mode", ["per-question", "pooled"])
    def test_zero_norm_row_no_unit_uses_is_no_error(self, mode):
        ts, lookup, raws, masks = one_path_group(np.random.default_rng(37))
        lookup["t9:0"] = [0.0] * 7
        (s,) = summarize([(ts, rows_of(lookup))], mode=mode)
        assert (s.k_star, s.k_star_c, s.k_star_w, s.mean_cosine) == self.expected(raws, masks, mode)

    def test_pooled_group_of_two_widths_is_refused(self):
        ts = [make_transcript("t1", ["A", "A"]), make_transcript("t1", ["A", "A"])]
        lookups = [embeddings_for("t1", np.eye(2)), embeddings_for("t1", np.eye(3)[:2])]
        with pytest.raises(ValueError, match=r"^embeddings of task t1 have width 3, not the 2 "):
            summarize([([t], rows_of(m)) for t, m in zip(ts, lookups)], mode="pooled")


class TestTaskTable:
    """score's rows are the units summarize_table averages."""

    def test_one_row_per_unit(self):
        ts, lookup, raws, masks = one_path_group(np.random.default_rng(38))
        ts.insert(2, make_transcript("t9", ["A", "A"], n=4, invalid=True))
        valid = [t for t in ts if not t.invalid]
        rows = score(loaded([(ts, rows_of(lookup))]))
        assert [(r.config, r.task_id, r.correct, r.task_count) for r in rows] == [
            (("d1", "L1", "vote", 4), t.task_id, answer_matches(t.final_answer, "A"), 1)
            for t in valid]
        for r, raw, mask in zip(rows, raws, masks):
            assert (r.k_star, r.k_star_c, r.k_star_w, r.mean_cosine) == columns_of(
                EmbeddingSet(raw), mask)
        (pooled,) = score(loaded([(ts, rows_of(lookup))]), "pooled")
        assert (pooled.task_id, pooled.correct, pooled.task_count) == (
            None, sum(r.correct for r in rows), len(valid))
        assert (pooled.k_star, pooled.k_star_c, pooled.k_star_w, pooled.mean_cosine) == (
            columns_of(EmbeddingSet(np.vstack(raws)), sum(masks, [])))

    def test_without_embeddings_only_counts(self):
        ts = [make_transcript("t1", ["A", "B", "A"]), make_transcript("t2", ["B", "B"], n=3)]
        assert [(r.task_id, r.correct, r.task_count, r.k_star, r.mean_cosine)
                for r in score([(ts, None)])] == [("t1", 1, 1, None, None),
                                                  ("t2", 0, 1, None, None)]

    @pytest.mark.parametrize("mode", ["per-question", "pooled"])
    def test_tables_scored_store_by_store_summarize_as_all_at_once(self, mode):
        # two stores of one L1 group and one L2 group, with the larger units
        # later: scored all at once, the one buffer grows from unit to unit,
        # and is larger than some units of the second store
        rng = np.random.default_rng(39)
        ts, lookups = [], []
        for layer, widths in (("L1", [2, 3]), ("L2", [4, 6])):
            for k, calls in enumerate(widths):
                t = make_transcript(f"t{k}", ["A", "B"] * (calls // 2) + ["A"] * (calls % 2),
                                    layer=layer, n=6)
                ts.append(t)
                lookups.append(rows_of(embeddings_for(t.task_id, rng.standard_normal((calls, 5)))))
        stores = [[0, 2], [1, 3]] if mode == "per-question" else [[0, 1], [2, 3]]
        # each transcript with its own lookup, as ids repeat across layers
        whole = score(loaded([([t], lookup) for t, lookup in zip(ts, lookups)]), mode)
        table = []
        for store in stores:
            part = score(loaded([([ts[i]], lookups[i]) for i in store]), mode)
            units = {(ts[i].layer, ts[i].task_id if mode == "per-question" else None)
                     for i in store}
            assert part == [r for r in whole if (r.config[1], r.task_id) in units]
            table += part
        assert summarize_table(table) == summarize_table(whole)


class TestLoadLifetime:
    """score calls each store's loader at the store's first unit, lets the
    lookup go after its last, and loads no store without a valid transcript."""

    @staticmethod
    def stores(rng):
        """Stores a, b, c and d as (name, transcripts, rows_of): a and c share
        vote/L1/N2, a and b share vote/L2/N2, and d holds invalid transcripts only."""
        layout = {"a": [("L1", "t0"), ("L1", "t1"), ("L2", "t0")],
                  "b": [("L2", "t1"), ("L2", "t2"), ("L3", "t0")],
                  "c": [("L1", "t2")], "d": [("L1", "t3"), ("L2", "t3")]}
        stores = []
        for name, members in layout.items():
            ts, mapping = [], {}
            for layer, task_id in members:
                ts.append(make_transcript(task_id, ["A", "B"], layer=layer,
                                          invalid=name == "d"))
                mapping.update(embeddings_for(task_id, rng.standard_normal((2, 5))))
            stores.append((name, ts, rows_of(mapping)))
        return stores

    @staticmethod
    def tracked(stores):
        """`stores` as score takes them, each lookup behind a loader that counts
        its calls; and a log of (layer, stores whose lookup is alive) at each
        lookup of a transcript's rows, in order and without repeats."""
        live, calls, log = set(), collections.Counter(), []

        def loader(name, lookup):
            def load():
                calls[name] += 1

                def held_rows_of(t):
                    entry = (t.layer, tuple(sorted(live)))
                    if not log or log[-1] != entry:
                        log.append(entry)
                    return lookup(t)

                live.add(name)
                weakref.finalize(held_rows_of, live.discard, name)
                return held_rows_of
            return load

        return [(ts, loader(name, lookup)) for name, ts, lookup in stores], calls, log, live

    def test_per_question_holds_one_store_even_where_stores_share_a_config(self):
        loaders, calls, log, live = self.tracked(self.stores(np.random.default_rng(50)))
        score(loaders, "per-question")
        assert log == [("L1", ("a",)), ("L2", ("a",)), ("L2", ("b",)), ("L3", ("b",)),
                       ("L1", ("c",))]
        assert calls == {"a": 1, "b": 1, "c": 1} and not live

    def test_pooled_drops_each_store_after_its_last_group(self):
        loaders, calls, log, live = self.tracked(self.stores(np.random.default_rng(51)))
        score(loaders, "pooled")
        # c goes after L1, its only group, and a after L2, before L3 is read
        assert log == [("L1", ("a", "c")), ("L2", ("a", "b")), ("L3", ("b",))]
        assert calls == {"a": 1, "b": 1, "c": 1} and not live

    def test_pooled_holds_one_linked_set_of_stores_at_a_time(self):
        # a and c share L1/N2, b and d share L2/N2, and c and d each add an N4
        # group.  In the order of each unit's first store, L2/N2 would load b
        # and d while c still waits for L1/N4.
        rng = np.random.default_rng(53)
        layout = {"a": [("L1", 2, "t0")], "b": [("L2", 2, "t0")],
                  "c": [("L1", 2, "t1"), ("L1", 4, "t2")],
                  "d": [("L2", 2, "t1"), ("L2", 4, "t2")]}
        stores = []
        for name, members in layout.items():
            ts, mapping = [], {}
            for layer, n, task_id in members:
                ts.append(make_transcript(task_id, ["A", "B"] * (n // 2), layer=layer))
                mapping.update(embeddings_for(task_id, rng.standard_normal((n, 5))))
            stores.append((name, ts, rows_of(mapping)))
        loaders, calls, log, live = self.tracked(stores)
        table = score(loaders, "pooled")
        assert max(len(held) for _, held in log) == 2
        assert log == [("L1", ("a", "c")), ("L1", ("c",)), ("L2", ("b", "d")), ("L2", ("d",))]
        assert calls == {"a": 1, "b": 1, "c": 1, "d": 1} and not live
        assert [(r.config[1], r.config[3]) for r in table] == [
            ("L1", 2), ("L1", 4), ("L2", 2), ("L2", 4)]
        assert table == score(loaded([(ts, lookup) for _, ts, lookup in stores]), "pooled")

    @pytest.mark.parametrize("mode", ["per-question", "pooled"])
    def test_tables_equal_those_of_lookups_loaded_at_once_in_any_store_order(self, mode):
        stores = self.stores(np.random.default_rng(52))
        for seed in range(4):
            order = [stores[i] for i in np.random.default_rng(seed).permutation(len(stores))]
            loaders, calls, _, _ = self.tracked(order)
            table = score(loaders, mode)
            at_once = score(loaded([(ts, lookup) for _, ts, lookup in order]), mode)
            assert table == at_once
            assert summarize_table(table) == summarize_table(at_once)
            assert calls == {"a": 1, "b": 1, "c": 1}


class TestOneConfig:
    """A config whose transcripts differ in rounds or agent types is two
    configs merged, and is refused."""

    @staticmethod
    def relabelled(t, label):
        t.calls = [{**c, "agent_type_label": label} for c in t.calls]
        return t

    @pytest.mark.parametrize("mode", ["per-question", "pooled"])
    @pytest.mark.parametrize("edit, message", [
        (lambda t: setattr(t, "rounds", 2), "whose rounds differ: 1 and 2"),
        (lambda t: TestOneConfig.relabelled(t, "m9|default|t0.7|p0.95|m1024"),
         "whose agent_type_label differ: ['m|default|t0.7|p0.95|m1024'] and "
         "['m9|default|t0.7|p0.95|m1024']"),
    ], ids=["rounds", "agent-types"])
    def test_two_stores_of_one_key_but_two_configs_are_refused(self, mode, edit, message):
        first, second = make_transcript("t0", ["A", "B"]), make_transcript("t0", ["A", "A"])
        edit(second)
        with pytest.raises(ValueError, match=re.escape(f"d1/vote/L1/N2 mixes transcripts {message}")):
            score([([first], None), ([second], None)], mode)

    def test_the_set_of_agent_types_is_compared_not_the_calls(self):
        # the same two types over two calls and over four, in another order
        two = self.relabelled(make_transcript("t0", ["A", "B"], n=4), "x")
        two.calls[1]["agent_type_label"] = "y"
        four = make_transcript("t1", ["A", "B", "A", "B"])
        for c, label in zip(four.calls, "yxxy"):
            c["agent_type_label"] = label
        assert [r.task_count for r in score([([two], None), ([four], None)], "pooled")] == [2]

    def test_invalid_transcripts_are_not_compared(self):
        bad = make_transcript("t1", ["A", "B"], invalid=True)
        bad.rounds = 3
        (row,) = score([([make_transcript("t0", ["A", "A"])], None), ([bad], None)], "pooled")
        assert row.task_count == 1


class TestNumericGold:
    """A numeric answer scores against its gold's canonical number."""

    class Solver:
        """Answers each question right, in the form extract_answer reads."""

        deterministic = True
        replies = {"Q42?": "The answer is 42.", "Quarter?": "Answer: 0.25",
                   "Million?": "So x = 1,000,000"}

        def chat(self, messages, model, decoding):
            return next(r for q, r in self.replies.items() if q in messages[-1]["content"])

    def test_right_answers_score_whatever_the_golds_form(self, pool):
        tasks = [{"id": "a", "question": "Q42?", "answer": 42},
                 {"id": "b", "question": "Quarter?", "answer": "0.250"},
                 {"id": "c", "question": "Million?", "answer": "1,000,000"}]
        plan = DiversityPlan(layer="L1", model_pool=("m1",), persona_pool=())
        ts = [run_workflow(t, WorkflowSpec("vote", 3), plan, self.Solver(), pool) for t in tasks]
        embedder = MockEmbeddingBackend(dim=8)
        lookup = {}
        for t in ts:
            lookup.update(zip(t.embedding_ids(), embedder.embed([c["raw_output"] for c in t.calls])))
        (s,) = summarize([(ts, rows_of(lookup))])
        assert s.accuracy == 1.0
        # every call counts as correct, so no call lands on the wrong side
        assert s.k_star_c is not None and s.k_star_w is None


class TestMarginalGains:
    def test_basic(self):
        gains = marginal_gains([(2, 0.5), (4, 0.7), (8, 0.8)])
        assert gains == [(4, pytest.approx(0.1)), (8, pytest.approx(0.025))]

    def test_needs_two_points(self):
        with pytest.raises(NeedTwoPoints):
            marginal_gains([(2, 0.5)])

    def test_strictly_increasing_n(self):
        with pytest.raises(ValueError):
            marginal_gains([(2, 0.5), (2, 0.6)])


class TestCorrelations:
    def test_pearson_perfect_line(self):
        assert abs(pearson_r([1, 2, 3, 4], [2, 4, 6, 8]) - 1.0) < 1e-12
        assert abs(pearson_r([1, 2, 3, 4], [-2, -4, -6, -8]) + 1.0) < 1e-12

    def test_pearson_known_value(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [1.0, 3.0, 2.0, 5.0]
        # direct covariance computation as oracle
        xa, ya = np.array(x), np.array(y)
        oracle = float(np.cov(xa, ya, bias=True)[0, 1] / (xa.std() * ya.std()))
        assert abs(pearson_r(x, y) - oracle) < 1e-12

    def test_pearson_zero_variance(self):
        with pytest.raises(DegenerateInput):
            pearson_r([1, 1, 1], [1, 2, 3])

    def test_pearson_too_few(self):
        with pytest.raises(DegenerateInput):
            pearson_r([1, 2], [3, 4])

    def test_ranks_with_ties(self):
        np.testing.assert_allclose(_ranks([10.0, 20.0, 20.0, 30.0]), [1, 2.5, 2.5, 4])

    def test_spearman_monotone_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        base = spearman_rho(x, y)
        assert abs(spearman_rho(np.exp(x), y) - base) < 1e-12
        assert abs(spearman_rho(x, y ** 3) - base) < 1e-12

    def test_spearman_perfect_monotone(self):
        x = [1, 5, 3, 4]
        assert abs(spearman_rho(x, np.exp(x)) - 1.0) < 1e-12


class TestPermutation:
    def test_strong_signal_small_p(self):
        rng = np.random.default_rng(2)
        x = np.arange(50.0)
        y = x + rng.normal(0, 0.1, size=50)
        report = permutation_test(x, y, shuffles=1000, seed=3)
        assert report.p_value <= 0.002
        assert report.z_score > 5

    def test_pure_noise_large_p(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(40)
        y = rng.standard_normal(40)
        report = permutation_test(x, y, shuffles=500, seed=5)
        assert report.p_value > 0.05

    def test_add_one_floor(self):
        report = permutation_test(np.arange(10.0), np.arange(10.0), shuffles=99, seed=0)
        assert report.p_value == pytest.approx(1 / 100)

    def test_seeded_reproducibility(self):
        x = np.arange(20.0)
        y = np.arange(20.0)[::-1].copy()
        a = permutation_test(x, y, shuffles=200, seed=7)
        b = permutation_test(x, y, shuffles=200, seed=7)
        assert a == b

    @pytest.mark.parametrize("n", [5, 16, 200])
    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    def test_null_is_the_per_shuffle_pearson_loop(self, n, ties):
        rng = np.random.default_rng([n, ties])
        x = rng.standard_normal(n) * 3.0 + 1.0
        y = rng.integers(0, 3, n) / 7.0 if ties else rng.standard_normal(n) * 1e3 + 7.0
        loop_rng = np.random.default_rng(11)
        loop = np.array([pearson_r(x, loop_rng.permutation(y)) for _ in range(300)])
        null = _shuffled_r(x, y, 300, np.random.default_rng(11))
        assert np.array_equal(null, loop)
        report = permutation_test(x, y, shuffles=300, seed=11)
        assert (report.null_mean, report.null_std) == (float(loop.mean()), float(loop.std()))
        assert report.p_value == (np.sum(np.abs(loop) >= abs(pearson_r(x, y))) + 1) / 301

    def test_validation(self):
        with pytest.raises(DegenerateInput):
            permutation_test([1, 2, 3], [1, 2, 3])
        with pytest.raises(DegenerateInput):
            permutation_test(np.arange(10.0), np.arange(10.0), shuffles=0)


def residual_oracle(design, y):
    # from-scratch least squares via the pseudo-inverse
    beta = np.linalg.pinv(design) @ y
    r = y - design @ beta
    return float(r @ r)


class TestRegression:
    def test_planted_coefficients_recovered(self):
        rng = np.random.default_rng(6)
        n = 60
        base = rng.standard_normal((n, 2))
        extra = rng.standard_normal((n, 1))
        y = 1.5 + base @ np.array([2.0, -1.0]) + 0.5 * extra[:, 0]
        report = ols_incremental_r2(base, extra, y, names=["b0", "b1", "kstar"])
        coef = dict(report.coefficients)
        assert abs(coef["intercept"] - 1.5) < 1e-4
        assert abs(coef["b0"] - 2.0) < 1e-4
        assert abs(coef["b1"] + 1.0) < 1e-4
        assert abs(coef["kstar"] - 0.5) < 1e-4
        assert report.r2_augmented > 0.999

    def test_matches_residual_oracle(self):
        rng = np.random.default_rng(7)
        n = 40
        base = rng.standard_normal((n, 3))
        extra = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        report = ols_incremental_r2(base, extra, y)
        ones = np.ones((n, 1))
        tss = float(((y - y.mean()) ** 2).sum())
        r2_base = 1.0 - residual_oracle(np.hstack([ones, base]), y) / tss
        r2_aug = 1.0 - residual_oracle(np.hstack([ones, base, extra]), y) / tss
        assert abs(report.r2_baseline - r2_base) < 1e-6
        assert abs(report.r2_augmented - r2_aug) < 1e-6

    def test_duplicate_feature_adds_nothing(self):
        rng = np.random.default_rng(8)
        n = 50
        base = rng.standard_normal((n, 2))
        y = base @ np.array([1.0, 2.0]) + rng.normal(0, 0.1, n)
        report = ols_incremental_r2(base, base[:, :1], y)
        assert abs(report.delta_r2) <= 1e-9

    def test_delta_r2_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = 30
            base = rng.standard_normal((n, 2))
            extra = rng.standard_normal((n, 1))
            y = rng.standard_normal(n)
            report = ols_incremental_r2(base, extra, y)
            assert report.delta_r2 >= -1e-9

    def test_constant_target_rejected(self):
        with pytest.raises(DegenerateInput):
            ols_incremental_r2(np.ones((10, 1)), np.ones((10, 1)), np.ones(10))


class TestAgentsToMatch:
    def test_candidate_matches_with_fewer(self):
        baseline = [(2, 0.5), (4, 0.6), (16, 0.65)]
        candidate = [(2, 0.66), (4, 0.70)]
        assert agents_to_match(baseline, candidate) == (2, 0.66)

    def test_candidate_needs_more(self):
        baseline = [(4, 0.7)]
        candidate = [(2, 0.5), (4, 0.65), (8, 0.72)]
        assert agents_to_match(baseline, candidate) == (8, 0.72)

    def test_never_matches(self):
        assert agents_to_match([(4, 0.9)], [(2, 0.1), (8, 0.2)]) == (None, None)

    def test_target_is_largest_n(self):
        # baseline dips at its largest N; the dip sets the target
        baseline = [(2, 0.8), (4, 0.6)]
        assert agents_to_match(baseline, [(2, 0.65)]) == (2, 0.65)

    def test_empty_rejected(self):
        with pytest.raises(EmptySeries):
            agents_to_match([], [(2, 0.5)])


class TestBoundary:
    def make_summary(self, c, w, layer="L4"):
        ts = [make_transcript("t1", ["A", "A"], layer=layer)]
        (s,) = summarize([(ts, None)])
        return type(s)(
            dataset="d1", layer=layer, workflow="vote", n_agents=2,
            accuracy=1.0, k_star=1.5, k_star_c=c, k_star_w=w,
            mean_cosine=0.5, task_count=1,
        )

    def test_strict_dominance(self):
        entries, skipped = boundary_classification(
            [self.make_summary(1.5, 1.2), self.make_summary(1.1, 1.3)]
        )
        assert skipped == 0
        assert [e[1] for e in entries] == ["correct-dominant", "wrong-dominant"]
        assert all(not e[2] for e in entries)

    def test_tie_is_wrong_dominant_and_flagged(self):
        entries, _ = boundary_classification([self.make_summary(1.4, 1.4)])
        assert entries[0][1] == "wrong-dominant"
        assert entries[0][2] is True

    def test_missing_component_skipped(self):
        entries, skipped = boundary_classification(
            [self.make_summary(1.5, None), self.make_summary(None, 1.2)]
        )
        assert entries == []
        assert skipped == 2

    def test_labels_carry_config(self):
        entries, _ = boundary_classification([self.make_summary(1.5, 1.2)])
        assert entries[0][0] == "d1/vote/L4/N2"


BASE_REPORTS = {"summaries.csv", "summaries.json", "accuracy_vs_n.csv", "marginal_gains.csv",
                "agents_to_match.csv"}
SPECTRAL_REPORTS = {"boundary.csv", "kstar_vs_accuracy.csv"}
STATS_REPORTS = {"permutation_report.json", "regression_report.json"}


def run_summary(layer, n, acc, ks):
    ks_c = None if ks is None else ks + 0.1
    return RunSummary("d1", layer, "vote", n, acc, ks, ks_c, ks, ks, 10)


def layered_summaries(layers, accuracies, ns=(2, 4, 8, 16)):
    """One summary per (layer, N), accuracies in order.

    K* grows with layer and N but is no linear function of them, so the
    K* regression has a full-rank design.
    """
    acc = iter(accuracies)
    return [run_summary(l, n, next(acc), 1.0 + 0.3 * i + 0.05 * n * (i + 1) ** 0.5)
            for i, l in enumerate(layers) for n in ns]


class TestReportBundle:
    def test_every_report_written(self):
        summaries = layered_summaries(["L1", "L2"], [0.4, 0.5, 0.55, 0.57, 0.45, 0.6, 0.7, 0.8])
        files, skipped = report_bundle(summaries, seed=3)
        assert skipped == {}
        assert set(files) == BASE_REPORTS | SPECTRAL_REPORTS | STATS_REPORTS
        assert files["summaries.csv"].splitlines()[0] == (
            "dataset,workflow,layer,n_agents,accuracy,k_star,k_star_c,k_star_w,"
            "mean_cosine,task_count,mode")
        assert files["agents_to_match.csv"].splitlines()[1:] == ["d1,vote,L2,4,0.6"]
        x = [s.k_star for s in summaries]
        y = [s.accuracy for s in summaries]
        assert json.loads(files["permutation_report.json"]) == asdict(
            permutation_test(x, y, shuffles=1000, seed=3))
        reg = json.loads(files["regression_report.json"])
        assert reg["n_obs"] == 8
        assert [name for name, _ in reg["coefficients"]] == [
            "intercept", "n_agents", "layer_L2", "k_star"]

    @pytest.mark.parametrize("summaries", [
        [run_summary("L1", 2, 0.5, None), run_summary("L1", 4, 0.6, None)], [],
    ], ids=["no-embeddings", "no-valid-transcript"])
    def test_no_k_star_skips_spectral_reports(self, summaries):
        files, skipped = report_bundle(summaries)
        assert set(files) == BASE_REPORTS
        assert set(skipped) == SPECTRAL_REPORTS | STATS_REPORTS
        assert all(r.startswith("no config has K*") for r in skipped.values())

    def test_fewer_than_five_configs_skips_stats(self):
        files, skipped = report_bundle(layered_summaries(["L1"], [0.4, 0.5, 0.6, 0.65]))
        assert set(files) == BASE_REPORTS | SPECTRAL_REPORTS
        assert skipped == dict.fromkeys(STATS_REPORTS, "4 configs with K*, need at least 5")

    def test_constant_accuracy_skips_stats(self):
        files, skipped = report_bundle(layered_summaries(["L1", "L2"], [0.5] * 8))
        assert set(files) == BASE_REPORTS | SPECTRAL_REPORTS
        assert skipped == {"permutation_report.json": "zero variance",
                           "regression_report.json": "constant target"}

    def test_singular_design_skips_regression(self):
        # N, three layer dummies, K* and an intercept: 6 columns for 5 configs
        summaries = layered_summaries(["L1", "L2", "L3", "L4"], [0.3, 0.4, 0.5, 0.6, 0.7],
                                      ns=(2,))
        summaries.append(run_summary("L4", 4, 0.7, 3.0))
        files, skipped = report_bundle(summaries)
        assert "permutation_report.json" in files
        assert skipped == {
            "regression_report.json": "need more observations than augmented columns"}

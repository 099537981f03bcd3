import contextlib
import mmap
import os

import numpy as np
import pytest

from masinfo import spectral
from masinfo import store as store_module
from masinfo.analysis import score
from masinfo.backends import MockChatBackend
from masinfo.harness import WorkflowSpec, run_workflow
from masinfo.store import RunStore, load_store_embeddings
from test_harness import TASK_MC, make_plan
from test_spectral import after_a_tick, write_cache, write_rows

CONFIG = {"workflow": "vote", "layer": "L1", "n_agents_list": [2], "seed": 0}

linux = pytest.mark.skipif(not os.path.exists("/proc/self/smaps"),
                           reason="resident pages are read from /proc/self/smaps")


def mapped_rss_kb(path):
    """The resident kB of every mapping of `path` in this process, summed, or
    None when the process maps no part of it."""
    total, inside, found = 0, False, False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            head = line.split(maxsplit=1)[0]
            if "-" in head and not head.endswith(":"):  # a mapping's first line
                inside = line.rstrip("\n").endswith(" " + str(path))
                found |= inside
            elif inside and head == "Rss:":
                total += int(line.split()[1])
    return total if found else None


class TestRunStore:
    def test_resume_set(self, tmp_path, pool):
        spec = WorkflowSpec("vote", 2)
        with contextlib.closing(RunStore(tmp_path / "run")) as run:
            assert run.begin(CONFIG, [spec]) == {spec: set()}
            run.append(spec, run_workflow(TASK_MC, spec, make_plan(), MockChatBackend(seed=0),
                                          pool), None)
        assert RunStore(tmp_path / "run").begin(CONFIG, [spec]) == {spec: {"t1"}}


class TestCacheFiniteCheck:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("index", [None, 0, 21, 44],
                             ids=["finite", "first-chunk", "middle-chunk", "last-chunk"])
    def test_every_chunk_is_checked(self, tmp_path, monkeypatch, index, value):
        # 45 floats through a buffer of 8: chunks 0-7, 8-15, ..., 40-44
        monkeypatch.setattr(store_module, "_READ_CHUNK", 64)
        path, cache = tmp_path / "emb.jsonl", tmp_path / "emb.cache"
        write_rows(path, [f"q{i}:0" for i in range(9)],
                   np.random.default_rng(8).standard_normal((9, 5)))
        after_a_tick(path)  # so that the first call writes the cache
        want = spectral.load_embeddings_jsonl(path)
        load_store_embeddings(path)
        data = cache.read_bytes()
        rows = want[1].ravel().copy()
        if index is not None:
            rows[index] = value
        write_cache(cache, path, rows=rows.tobytes())
        if index is None:  # every chunk finite: a hit, with nothing decoded
            monkeypatch.setattr(spectral, "load_embeddings_jsonl", None)
        ids, got = load_store_embeddings(path)
        assert ids == want[0]
        assert np.array_equal(got.view(np.uint64), want[1].view(np.uint64))
        if index is not None:  # a miss, and the cache rewritten
            assert cache.read_bytes() == data


class TestResidentRows:
    """A warm hit's rows are mapped, but only the unit being scored is resident."""

    @pytest.fixture
    def store(self, tmp_path, pool):
        """A run directory of six vote tasks with one row of 8 KiB per call and
        its cache written, so that its rows span two pages each."""
        spec, rng = WorkflowSpec("vote", 2), np.random.default_rng(4)
        with contextlib.closing(RunStore(tmp_path)) as run:
            run.begin(CONFIG, [spec])
            for i in range(6):
                t = run_workflow({**TASK_MC, "id": f"t{i}"}, spec, make_plan(),
                                 MockChatBackend(seed=0), pool)
                run.append(spec, t, rng.standard_normal((len(t.calls), 1024)).tolist())
        after_a_tick(tmp_path / "embeddings.jsonl")
        RunStore(tmp_path).rows()  # cold: decodes the rows and writes the cache
        return tmp_path

    @linux
    def test_warm_rows_are_mapped_but_not_resident(self, store):
        cache, path = store / "embeddings.cache", store / "embeddings.jsonl"
        inode = cache.stat().st_ino
        _, rows = load_store_embeddings(path)
        assert cache.stat().st_ino == inode
        assert mapped_rss_kb(cache) == 0
        assert np.isfinite(rows).all()  # read through the mapping, they are resident
        assert mapped_rss_kb(cache) > 0
        store_module.release_pages(rows)
        assert mapped_rss_kb(cache) == 0
        assert np.isfinite(rows).all()

    @linux
    def test_scored_rows_are_let_go(self, store):
        run = RunStore(store)
        lookup = run.rows()  # held, so the mapping outlives the scoring
        table = score([(run.transcripts(), lambda: lookup)])
        assert [r.task_id for r in table] == [f"t{i}" for i in range(6)]
        assert all(r.k_star is not None for r in table)
        assert mapped_rss_kb(store / "embeddings.cache") == 0

    @pytest.mark.skipif(not hasattr(mmap, "MADV_DONTNEED"), reason="no MADV_DONTNEED")
    def test_release_pages_finds_the_mapping_through_either_base_chain(self, tmp_path):
        class Mapping(mmap.mmap):
            def madvise(self, *args):
                advised.append(args)
                return super().madvise(*args)

        advised = []
        (tmp_path / "rows").write_bytes(np.arange(1024.0).tobytes())
        with open(tmp_path / "rows", "rb") as fh:
            m = Mapping(fh.fileno(), 0, access=mmap.ACCESS_READ)
        # numpy 2's frombuffer puts a memoryview between array and mapping;
        # an array made on the mapping itself has it as its base, as 1.24's may
        for rows in (np.frombuffer(m, "<f8", 512, 4096).reshape(16, 32),
                     np.ndarray((16, 32), "<f8", buffer=m, offset=4096),
                     np.frombuffer(memoryview(m), "<f8").reshape(32, 32)[16:]):
            store_module.release_pages(rows)
            assert advised.pop() == (mmap.MADV_DONTNEED,)
            assert rows[0, 0] == 512.0
        store_module.release_pages(np.arange(4.0).reshape(2, 2))  # decoded rows: nothing to do
        assert advised == []

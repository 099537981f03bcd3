import hashlib
import io
import json
import os
import shutil
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from masinfo import spectral
from masinfo import store as store_module
from masinfo.harness import DimensionMismatch, fetch_embeddings
from masinfo.spectral import (
    EmbeddingSet,
    ZeroNormVector,
    TooFewRows,
    is_finite_number_list,
    k_star,
    k_star_conditioned,
    load_embeddings_jsonl,
    mean_pairwise_cosine,
    symmetric_eigenvalues,
)
from masinfo.store import load_store_embeddings


def random_unit_rows(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def entropy_oracle(probs):
    # independent direct evaluation, no shared code path
    return -sum(p * np.log2(p) for p in probs if p > 0)


class TestNormalize:
    def test_scales_to_unit(self):
        emb = EmbeddingSet([[3.0, 4.0]])
        np.testing.assert_allclose(emb.vectors, [[0.6, 0.8]])

    def test_axis_vectors(self):
        emb = EmbeddingSet([[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(emb.vectors, [[1, 0], [0, 1]])

    def test_zero_norm_rejected(self):
        with pytest.raises(ZeroNormVector) as exc:
            EmbeddingSet([[1e-15, 0.0]])
        assert exc.value.index == 0

    def test_row_order_preserved(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((5, 3)) * 10
        emb = EmbeddingSet(raw)
        for i in range(5):
            np.testing.assert_allclose(emb.vectors[i], raw[i] / np.linalg.norm(raw[i]))


class TestEmbeddingSet:
    """EmbeddingSet is the one normalizer: every K* reads the rows it scaled."""

    def test_scales_non_unit_rows_in_order(self):
        raw = np.array([[3.0, 4.0], [0.0, -2.0], [1e-3, 0.0], [5.0, 12.0]])
        emb = EmbeddingSet(raw)
        np.testing.assert_allclose(np.linalg.norm(emb.vectors, axis=1), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(emb.vectors, [[0.6, 0.8], [0.0, -1.0], [1.0, 0.0],
                                                 [5 / 13, 12 / 13]], rtol=0, atol=1e-15)

    def test_zero_norm_row_names_its_index(self):
        with pytest.raises(ZeroNormVector) as exc:
            EmbeddingSet([[1.0, 0.0], [0.5, 0.5], [1e-13, 0.0], [0.0, 0.0]])
        assert exc.value.index == 2

    def test_row_whose_squares_overflow_keeps_its_direction(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning too
            emb = EmbeddingSet([[1e308, 1e308], [1.0, 0.0], [-1e200, 0.0]])
        np.testing.assert_allclose(emb.vectors, [[2 ** -0.5, 2 ** -0.5], [1.0, 0.0], [-1.0, 0.0]],
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d", [1, 7, 64, 1536])
    def test_rows_are_divided_by_numpys_norm_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        raw = rng.standard_normal((67, d)) * rng.uniform(1e-3, 1e3, (67, 1))
        want = raw / np.linalg.norm(raw, axis=1)[:, None]
        got = EmbeddingSet(raw).vectors
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("raw", [[[0.6, 0.8], [1.0, 0.0]], [[3.0, 4.0], [1.0, 0.0]]],
                             ids=["unit", "non-unit"])
    def test_leaves_the_callers_array_writable_and_unchanged(self, raw):
        raw = np.array(raw)
        before = raw.copy()
        emb = EmbeddingSet(raw)
        assert raw.flags.writeable
        np.testing.assert_array_equal(raw, before)
        assert not emb.vectors.flags.writeable
        raw[0, 0] = 7.0
        np.testing.assert_allclose(emb.vectors[0], [0.6, 0.8])

    @pytest.mark.parametrize("n", [1, 2, 7, 33, 64])
    @pytest.mark.parametrize("d", [2, 64, 1536])
    def test_gram_is_exactly_symmetric(self, n, d):
        # _spectrum hands the Gram and its principal submatrices to eigvalsh,
        # which reads one triangle, without symmetrizing them: numpy computes
        # a product with its own transpose by BLAS syrk and mirrors the
        # triangle, and k_star_conditioned's sides are submatrices of that Gram
        rng = np.random.default_rng([n, d])
        g = spectral._unit_gram(EmbeddingSet(random_unit_rows(rng, n, d)).vectors)
        mask = rng.random(n) < 0.5
        for sub in (g, g[np.ix_(mask, mask)], g[np.ix_(~mask, ~mask)]):
            assert np.array_equal(sub, sub.T)


class TestGram:
    """The cosine Gram matrix G, seen through the functions that read it."""

    def test_identical_rows(self):
        emb = EmbeddingSet([[1.0, 0.0], [2.0, 0.0]])
        np.testing.assert_allclose(mean_pairwise_cosine(emb).mean_pairwise_cosine, 1.0)
        np.testing.assert_allclose(k_star(emb).k_star, 1.0)

    def test_orthogonal_rows(self):
        emb = EmbeddingSet([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(mean_pairwise_cosine(emb).mean_pairwise_cosine, 0.0)
        np.testing.assert_allclose(k_star(emb).k_star, 2.0)

    def test_sixty_degrees(self):
        # cos 60 deg = 0.5, checked against the direct dot product
        a = np.array([1.0, 0.0])
        b = np.array([np.cos(np.pi / 3), np.sin(np.pi / 3)])
        emb = EmbeddingSet([a, b])
        assert abs(mean_pairwise_cosine(emb).mean_pairwise_cosine - float(a @ b)) < 1e-12
        assert abs(mean_pairwise_cosine(emb).mean_pairwise_cosine - 0.5) < 1e-12

    def test_trace_is_n(self):
        # rho = G / n has unit trace exactly when Tr(G) = n
        rng = np.random.default_rng(1)
        emb = EmbeddingSet(random_unit_rows(rng, 7, 5))
        assert abs(sum(k_star(emb).eigenvalues) - 1.0) < 1e-8


class TestKStar:
    def test_collinear_is_one(self):
        for n in (1, 2, 5):
            emb = EmbeddingSet([[2.0, 0.0, 0.0]] * n)
            assert abs(k_star(emb).k_star - 1.0) < 1e-6

    def test_orthogonal_is_n(self):
        for n in (2, 3, 6):
            emb = EmbeddingSet(np.eye(n))
            assert abs(k_star(emb).k_star - n) < 1e-6

    def test_cosine_point_six(self):
        # eigenvalues of rho are (1 +- 0.6)/2 by hand; entropy via the oracle
        emb = EmbeddingSet([[1.0, 0.0], [0.6, 0.8]])
        s = k_star(emb)
        np.testing.assert_allclose(sorted(s.eigenvalues, reverse=True), [0.8, 0.2], atol=1e-9)
        h = entropy_oracle([0.8, 0.2])
        assert abs(s.entropy_bits - h) < 1e-9
        assert abs(s.k_star - 2.0 ** h) < 1e-9
        assert abs(s.k_star - 1.64938) < 1e-4

    def test_summary_invariants(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, d = rng.integers(1, 9), rng.integers(1, 17)
            emb = EmbeddingSet(random_unit_rows(rng, n, d))
            s = k_star(emb)
            assert abs(sum(s.eigenvalues) - 1.0) < 1e-8
            assert min(s.eigenvalues) >= 0.0
            assert abs(s.k_star - 2.0 ** s.entropy_bits) < 1e-9 * max(1.0, s.k_star)
            assert 1.0 - 1e-9 <= s.k_star <= n + 1e-9

    def test_sign_flips_still_collinear(self):
        emb = EmbeddingSet([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        assert abs(k_star(emb).k_star - 1.0) < 1e-6

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        rows = random_unit_rows(rng, 6, 10)
        base = k_star(EmbeddingSet(rows)).k_star
        for _ in range(5):
            perm = rng.permutation(6)
            assert abs(k_star(EmbeddingSet(rows[perm])).k_star - base) < 1e-9

    def test_continuity_probe(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n, d = rng.integers(2, 9), rng.integers(2, 17)
            rows = random_unit_rows(rng, n, d)
            base = k_star(EmbeddingSet(rows)).k_star
            noise = rng.standard_normal((n, d))
            noise *= 1e-6 / np.linalg.norm(noise, axis=1, keepdims=True)
            perturbed = EmbeddingSet(rows + noise)
            assert abs(k_star(perturbed).k_star - base) < 1e-3

    def test_monotone_in_two_vector_cosine(self):
        previous = None
        for c in np.arange(0.0, 0.95, 0.1):
            emb = EmbeddingSet([[1.0, 0.0], [c, np.sqrt(1 - c * c)]])
            value = k_star(emb).k_star
            if previous is not None:
                assert value < previous
            previous = value

    @pytest.mark.parametrize("shape", ["n<d", "n=d", "n>d", "repeated"])
    def test_spectrum_is_the_oracle_checked_eigensolvers(self, shape):
        # analyze and kstar reach eigvalsh through _spectrum, not through
        # symmetric_eigenvalues, which criterion 2 checks against its oracles
        rng = np.random.default_rng(5)
        if shape == "repeated":
            z = random_unit_rows(rng, 4, 6)[[0, 1, 0, 2, 1, 0, 3]]
        else:
            z = random_unit_rows(rng, *{"n<d": (5, 12), "n=d": (8, 8), "n>d": (12, 5)}[shape])
        n = len(z)
        expected = np.clip(symmetric_eigenvalues(z @ z.T) / n, 0, None)
        np.testing.assert_allclose(k_star(EmbeddingSet(z)).eigenvalues, expected, rtol=0,
                                   atol=1e-10)


class TestConditioned:
    def test_all_correct(self):
        emb = EmbeddingSet(np.eye(3))
        c, w = k_star_conditioned(emb, [True, True, True])
        assert abs(c - 3.0) < 1e-6
        assert w is None

    def test_singletons(self):
        emb = EmbeddingSet([[1.0, 0.0], [1.0, 0.0]])
        c, w = k_star_conditioned(emb, [True, False])
        assert abs(c - 1.0) < 1e-9
        assert abs(w - 1.0) < 1e-9

    def test_block_structure(self):
        # correct pair orthogonal (K*=2), wrong pair identical (K*=1)
        emb = EmbeddingSet(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
        )
        c, w = k_star_conditioned(emb, [True, True, False, False])
        assert abs(c - 2.0) < 1e-6
        assert abs(w - 1.0) < 1e-6

    def test_mask_length_checked(self):
        emb = EmbeddingSet(np.eye(2))
        with pytest.raises(ValueError):
            k_star_conditioned(emb, [True])

    @pytest.mark.parametrize("n", [1, 2, 7, 33, 64])
    @pytest.mark.parametrize("rank", ["full", "deficient"])
    def test_shared_gram_sides_match_sub_row_grams(self, n, rank):
        # each side is a principal submatrix of the whole set's Gram; a Gram
        # of the side's own rows may sum its dot products in another order
        rng = np.random.default_rng([n, rank == "full"])
        raw = rng.standard_normal((n, 48))
        if rank == "deficient":  # rows in a 3-dim subspace, some repeated
            raw = rng.standard_normal((n, 3)) @ rng.standard_normal((3, 48))
            raw[n // 2:] = raw[: n - n // 2]
        emb = EmbeddingSet(raw)
        masks = [rng.random(n) < 0.5, np.ones(n, bool), np.zeros(n, bool),
                 np.arange(n) == n - 1]
        for mask in masks:
            got = k_star_conditioned(emb, mask)
            for side, m in zip(got, (mask, ~mask)):
                if not m.any():
                    assert side is None
                    continue
                fresh = spectral._spectrum(spectral._unit_gram(emb.vectors[m])).k_star
                assert side == pytest.approx(fresh, rel=1e-12, abs=0)
                if m.sum() == 1:
                    assert side == 1.0


class TestRedundancy:
    def test_identical_rows(self):
        emb = EmbeddingSet([[1.0, 1.0], [2.0, 2.0]])
        r = mean_pairwise_cosine(emb)
        assert abs(r.mean_pairwise_cosine - 1.0) < 1e-9
        assert r.pair_count == 1

    def test_orthogonal_rows(self):
        r = mean_pairwise_cosine(EmbeddingSet(np.eye(3)))
        assert abs(r.mean_pairwise_cosine) < 1e-9
        assert r.pair_count == 3

    def test_mixed_cosines(self):
        # pairs at cosines 0.5, 0.5, 1.0 average to 2/3
        a = [1.0, 0.0]
        b = [0.5, np.sqrt(0.75)]
        emb = EmbeddingSet([a, a, b])
        assert abs(mean_pairwise_cosine(emb).mean_pairwise_cosine - 2.0 / 3.0) < 1e-9

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            mean_pairwise_cosine(EmbeddingSet([[1.0, 0.0]]))

    @pytest.mark.parametrize("d", [3, 1536])
    @pytest.mark.parametrize("n", [2, 3, 17, 64])
    def test_matches_pair_loop(self, n, d):
        # the closed form against the definition: every pair's dot product
        rows = random_unit_rows(np.random.default_rng(n * d), n, d)
        pairs = [float(rows[i] @ rows[j]) for i in range(n) for j in range(i + 1, n)]
        r = mean_pairwise_cosine(EmbeddingSet(rows))
        assert r.pair_count == len(pairs)
        assert abs(r.mean_pairwise_cosine - sum(pairs) / len(pairs)) < 1e-12


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        rows = [{"id": "a", "vector": [1.0, 0.0]}, {"id": "b", "vector": [0.0, 1.0]}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        ids, raw = load_embeddings_jsonl(path)
        assert ids == ["a", "b"]
        np.testing.assert_allclose(raw, np.eye(2))

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "vector": [1.0]}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            load_embeddings_jsonl(path)

    def test_inconsistent_dimensions(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "vector": [1.0]}\n{"id": "b", "vector": [1.0, 2.0]}\n')
        with pytest.raises(ValueError, match="dimension"):
            load_embeddings_jsonl(path)


def stdlib_load(path):
    # the loader's reference: stdlib decoder, one float() per element
    ids, rows = [], []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                ids.append(str(obj["id"]))
                rows.append([float(x) for x in obj["vector"]])
    return ids, np.array(rows, dtype=float)


def random_literal(rng):
    """A JSON number of 1-25 digits, often not the shortest form of its double."""
    digits = "".join(map(str, rng.integers(0, 10, int(rng.integers(1, 26)))))
    cut = int(rng.integers(1, len(digits) + 1))
    whole, frac = digits[:cut].lstrip("0") or "0", digits[cut:]
    text = ("-" if rng.random() < 0.5 else "") + whole + ("." + frac if frac else "")
    if rng.random() < 0.7:
        # exponents stay below overflow: 25 digits times 1e280 is finite
        text += str(rng.choice(["e", "E"])) + str(rng.choice(["", "+", "-"]))
        text += str(rng.integers(0, 281))
    return text


class TestJsonlDecoding:
    def test_matches_stdlib_decoder_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(17)
        doubles = np.concatenate([
            rng.standard_normal(600),
            rng.standard_normal(300) * 10.0 ** rng.integers(-300, 301, 300),
            rng.random(100) * 2.2250738585072014e-308,  # subnormal
            [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e300],
        ])
        literals = [repr(float(v)) for v in doubles]
        literals += [random_literal(rng) for _ in range(1400)]
        literals += ["1E5", "1e-05", "2.5e+3", "0.1000000000000000055511151231257827",
                     "9007199254740993", "123456789012345678901234567890", "-0", "1.0e-400"]
        width = 12
        literals += ["0"] * (-len(literals) % width)
        rng.shuffle(literals)
        lines = [
            '{"id": "r%d", "vector": [%s]}' % (i, ", ".join(literals[j:j + width]))
            for i, j in enumerate(range(0, len(literals), width))
        ]
        path = tmp_path / "emb.jsonl"
        path.write_text("\n".join(lines) + "\n")
        ids, raw = load_embeddings_jsonl(path)
        ref_ids, ref = stdlib_load(path)
        assert ids == ref_ids
        assert raw.shape == ref.shape == (len(lines), width)
        assert raw.dtype == np.float64
        assert np.array_equal(raw.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("row", [
        '{"id": "b", "vector": [1.0, null]}',
        '{"id": "b", "vector": [1.0, NaN]}',
        '{"id": "b", "vector": [Infinity, 1.0]}',
        '{"id": "b", "vector": [1.0, -Infinity]}',
        '{"id": "b", "vector": [1e400, 1.0]}',
        '{"id": "b", "vector": [[1.0, 2.0]]}',
        '{"id": "b", "vector": 1.5}',
        '{"id": "b", "vector": ["x", 1.0]}',
        '{"id": "b"}',
        '{"id": "b", "vector": [true, false]}',
        '{"id": "b", "vector": ["2", 1.0]}',
        '{"id": "b", "vector": [true, 1.5]}',
        '{"id": "b", "vector": []}',
    ], ids=["null", "nan", "infinity", "minus-infinity", "overflow", "nested", "scalar",
            "string", "missing-vector", "boolean", "numeric-string", "mixed", "empty"])
    def test_bad_row_names_line(self, tmp_path, row):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "vector": [1.0, 0.0]}\n' + row + "\n")
        with pytest.raises(ValueError, match="line 2"):
            load_embeddings_jsonl(path)

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank-lines"])
    def test_empty_file_rejected(self, tmp_path, text):
        path = tmp_path / "emb.jsonl"
        path.write_text(text)
        with pytest.raises(ValueError, match="empty"):
            load_embeddings_jsonl(path)


class TestRowRule:
    @pytest.mark.parametrize("vector, ok", [
        ([1.0, -2, 0.0], True),
        ([], True),
        ([1e308, 1e308], True),  # the sum overflows, every term is finite
        ([10 ** 300, 0.5], True),
        ([10 ** 400, 0.5], False),
        ([10 ** 400, -10 ** 400], False),  # an int sum would cancel to 0
        ([1.0, float("inf")], False),
        ([float("inf"), float("-inf")], False),
        ([float("nan"), 1.0], False),
        ([True, 1.5], False),
        (["2", 1.0], False),
        ([None, 1.0], False),
        ([[1.0], 1.0], False),
        ([np.float64(1.0)], False),
        ((1.0, 2.0), False),
        (np.array([1.0, 2.0]), False),
    ])
    def test_flat_list_of_finite_ints_and_floats(self, vector, ok):
        assert is_finite_number_list(vector) is ok

    @pytest.mark.parametrize("vector", [
        [1.0, 2], [1e308, 1e308], [True, False], ["2", True], [True, 1.5], [None, 1.0],
        [[1.0, 2.0]], [18446744073709551616, 1.0],
    ])
    def test_loader_and_fetch_embeddings_agree(self, tmp_path, vector):
        class Backend:
            max_batch = None

            def embed(self, texts, model=None):
                return [json.loads(json.dumps(vector)) for _ in texts]

        path = tmp_path / "emb.jsonl"
        path.write_text(json.dumps({"id": "a", "vector": vector}) + "\n")
        try:
            load_embeddings_jsonl(path)
            loaded = True
        except ValueError:
            loaded = False
        try:
            fetch_embeddings(["a"], Backend())
            fetched = True
        except DimensionMismatch:
            fetched = False
        assert loaded == fetched == is_finite_number_list(json.loads(json.dumps(vector)))


def write_rows(path, ids, vectors, mode="w"):
    with open(path, mode) as fh:
        fh.writelines(json.dumps({"id": i, "vector": v.tolist()}) + "\n"
                      for i, v in zip(ids, vectors))


HEADER = ["format", "stamp", "width", "ids"]


def make_racy(monkeypatch, path):
    """Give the temp files load_store_embeddings makes from here on `path`'s
    ctime as their mtime, as if made in the tick of `path`'s last write: a
    stamp of `path` is then racy.

    A test cannot make a ctime older, so the reference moves back instead.
    """
    mkstemp = store_module.tempfile.mkstemp

    def racy(*args, **kwargs):
        fd, tmp = mkstemp(*args, **kwargs)
        t = os.stat(path).st_ctime_ns
        os.utime(fd, ns=(t, t))
        return fd, tmp

    monkeypatch.setattr(store_module.tempfile, "mkstemp", racy)


def after_a_tick(path):
    """Wait until a file written now gets a later timestamp than `path`'s ctime,
    so that any write to `path` from here on changes its ctime, and a cache of
    `path` written from here on is trusted."""
    probe = path.parent / ".tick"
    deadline = time.monotonic() + 10  # coarse filesystems tick every second or two
    while True:
        probe.write_bytes(b"")
        if probe.stat().st_mtime_ns > path.stat().st_ctime_ns:
            break
        assert time.monotonic() < deadline
        time.sleep(0.001)
    probe.unlink()


def write_cache(cache, path, rows=None, **header):
    """A cache for `path` as load_store_embeddings writes it, with `header`
    fields (HEADER) and the `rows` bytes replaced."""
    ids, vectors = load_embeddings_jsonl(path)
    fields = {"format": store_module._CACHE_FORMAT, "stamp": store_module._stamp(os.stat(path)),
              "width": vectors.shape[1], "ids": ids, **header}
    rows = vectors.astype("<f8").tobytes() if rows is None else rows
    cache.write_bytes(json.dumps([fields[f] for f in HEADER]).encode() + b"\n" + rows)


def read_cache(cache):
    """The header fields of `cache` by name, and its rows as a flat float64 array."""
    header, rows = cache.read_bytes().split(b"\n", 1)
    return dict(zip(HEADER, json.loads(header))), np.frombuffer(rows, dtype="<f8")


def change_a_digit(path):
    """Change the first digit of the last row's first coordinate in `path`, in place, keeping
    its size and inode; returns `path`'s stat from before."""
    before = path.stat()
    data = bytearray(path.read_bytes())
    i = data.rindex(b"[") + 1
    while not chr(data[i]).isdigit():
        i += 1
    data[i] = ord("1") if data[i] == ord("2") else ord("2")
    with open(path, "r+b") as fh:
        fh.write(data)
    return before


class FailingWriter(io.BufferedWriter):
    """A file that takes a few bytes of its first write, then raises `exc`."""

    exc = OSError(28, "No space left on device")

    def write(self, data):
        super().write(bytes(data[:5]))
        self.flush()
        raise self.exc


class TestStoreCache:
    @pytest.fixture
    def store(self, tmp_path):
        rng = np.random.default_rng(5)
        # one id ends in a NUL and one holds a newline, which the header line must keep
        ids = [f"q{i}:{i % 3}" for i in range(7)] + ["q7:\x00", "q\u00e9:\n0"]
        write_rows(tmp_path / "emb.jsonl", ids, rng.standard_normal((9, 5)))
        after_a_tick(tmp_path / "emb.jsonl")  # so that a miss writes the cache
        return tmp_path

    def no_decode(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("JSONL decoded on a cache hit")
        monkeypatch.setattr(spectral, "load_embeddings_jsonl", fail)

    def count_decodes(self, monkeypatch):
        calls = []
        decode = spectral.load_embeddings_jsonl

        def counted(fh, **kwargs):
            calls.append(fh.name)
            return decode(fh, **kwargs)

        monkeypatch.setattr(spectral, "load_embeddings_jsonl", counted)
        return calls

    def assert_same(self, got, want):
        assert got[0] == want[0]
        assert got[1].dtype == np.float64
        assert np.array_equal(got[1].view(np.uint64), want[1].view(np.uint64))

    def test_hit_equals_miss_bit_for_bit(self, store, monkeypatch):
        path = store / "emb.jsonl"
        want = load_embeddings_jsonl(path)
        self.assert_same(load_store_embeddings(path), want)  # miss, writes the cache
        header, rows = read_cache(store / "emb.cache")
        assert header == {"format": store_module._CACHE_FORMAT,
                          "stamp": store_module._stamp(path.stat()), "width": 5, "ids": want[0]}
        assert np.array_equal(rows.view(np.uint64), want[1].ravel().view(np.uint64))
        self.no_decode(monkeypatch)
        hit = load_store_embeddings(path)
        self.assert_same(hit, want)
        assert hit[0][7:] == ["q7:\x00", "q\u00e9:\n0"]
        assert sorted(os.listdir(store)) == ["emb.cache", "emb.jsonl"]

    def test_keys_of_rows_that_name_their_n_survive_the_cache(self, tmp_path, monkeypatch):
        path = tmp_path / "emb.jsonl"
        rows = np.random.default_rng(6).standard_normal((3, 4))
        path.write_text("".join(json.dumps(r) + "\n" for r in [
            {"id": "t0:0", "n": 2, "vector": rows[0].tolist()},
            {"id": "t0:0", "n": 4, "vector": rows[1].tolist()},
            {"id": "t0:1", "vector": rows[2].tolist()}]))
        after_a_tick(path)
        assert load_embeddings_jsonl(path)[0] == ["t0:0", "t0:0", "t0:1"]  # kstar's reading
        want = ([(2, "t0:0"), (4, "t0:0"), "t0:1"], rows)
        self.assert_same(load_store_embeddings(path), want)  # miss, writes the cache
        assert read_cache(tmp_path / "emb.cache")[0]["ids"] == [[2, "t0:0"], [4, "t0:0"], "t0:1"]
        self.no_decode(monkeypatch)
        self.assert_same(load_store_embeddings(path), want)

    @pytest.mark.parametrize("n", ["2", 2.0, None, [2]])
    def test_row_whose_n_is_no_integer_is_malformed(self, tmp_path, n):
        path = tmp_path / "emb.jsonl"
        path.write_text(json.dumps({"id": "t0:0", "n": 2, "vector": [1.0]}) + "\n"
                        + json.dumps({"id": "t0:1", "n": n, "vector": [1.0]}) + "\n")
        assert load_embeddings_jsonl(path)[0] == ["t0:0", "t0:1"]
        with pytest.raises(ValueError, match="^malformed embedding row at line 2: "
                                             "n must be an integer$"):
            load_embeddings_jsonl(path, keys=True)

    def test_appended_row_makes_the_cache_stale(self, store):
        path = store / "emb.jsonl"
        load_store_embeddings(path)
        write_rows(path, ["q9:0"], np.ones((1, 5)), mode="a")  # as a resumed run does
        after_a_tick(path)
        ids, vectors = load_store_embeddings(path)
        self.assert_same((ids, vectors), load_embeddings_jsonl(path))
        assert ids[-1] == "q9:0"
        assert read_cache(store / "emb.cache")[0]["stamp"] == store_module._stamp(path.stat())

    def test_row_appended_after_the_decode_is_not_cached_under_its_key(self, store, monkeypatch):
        # a run appending while analyze reads: the stamp must name the bytes decoded
        path = store / "emb.jsonl"
        decode = spectral.load_embeddings_jsonl

        def decode_then_append(*args, **kwargs):
            result = decode(*args, **kwargs)
            write_rows(path, ["q9:0"], np.ones((1, 5)), mode="a")
            return result

        monkeypatch.setattr(spectral, "load_embeddings_jsonl", decode_then_append)
        assert len(load_store_embeddings(path)[0]) == 9
        assert sorted(os.listdir(store)) == ["emb.jsonl"]
        monkeypatch.setattr(spectral, "load_embeddings_jsonl", decode)
        self.assert_same(load_store_embeddings(path), load_embeddings_jsonl(path))

    def test_trusted_stamp_is_a_hit_without_hashing_or_decoding(self, store, monkeypatch):
        path, cache = store / "emb.jsonl", store / "emb.cache"
        want = load_embeddings_jsonl(path)
        load_store_embeddings(path)
        data = cache.read_bytes()
        self.no_decode(monkeypatch)
        self.assert_same(load_store_embeddings(path), want)
        assert cache.read_bytes() == data
        # the helper's cache is a hit too, so a case that damages it misses
        # through its damage alone
        header, rows = read_cache(cache)
        write_cache(cache, path)
        assert read_cache(cache)[0] == header
        assert read_cache(cache)[1].tobytes() == rows.tobytes()
        self.assert_same(load_store_embeddings(path), want)

    def test_same_size_rewrite_with_its_mtime_put_back_is_seen(self, store):
        # as `cp -p`, `rsync -t` or `touch -r` leave a file: only its ctime moved
        path = store / "emb.jsonl"
        old = load_store_embeddings(path)
        after_a_tick(path)
        before = change_a_digit(path)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        now = path.stat()
        assert [now.st_ino, now.st_size, now.st_mtime_ns] == \
               [before.st_ino, before.st_size, before.st_mtime_ns]
        got = load_store_embeddings(path)
        self.assert_same(got, load_embeddings_jsonl(path))
        assert not np.array_equal(got[1], old[1])

    def test_same_size_rewrite_during_the_decode_leaves_no_stamp(self, store, monkeypatch):
        path = store / "emb.jsonl"
        decode = spectral.load_embeddings_jsonl

        def decode_then_rewrite(*args, **kwargs):
            result = decode(*args, **kwargs)
            after_a_tick(path)
            change_a_digit(path)
            return result

        monkeypatch.setattr(spectral, "load_embeddings_jsonl", decode_then_rewrite)
        old = load_store_embeddings(path)
        assert sorted(os.listdir(store)) == ["emb.jsonl"]  # no cache, no temp file
        monkeypatch.setattr(spectral, "load_embeddings_jsonl", decode)
        got = load_store_embeddings(path)
        self.assert_same(got, load_embeddings_jsonl(path))
        assert not np.array_equal(got[1], old[1])

    def test_racy_decode_writes_no_cache_until_a_tick_later(self, store, monkeypatch):
        path = store / "emb.jsonl"
        want = load_embeddings_jsonl(path)
        with monkeypatch.context() as m:
            make_racy(m, path)  # the JSONL's ctime is not older than the reference
            self.assert_same(load_store_embeddings(path), want)
        assert sorted(os.listdir(store)) == ["emb.jsonl"]  # no cache, no temp file
        after_a_tick(path)
        decoded = self.count_decodes(monkeypatch)
        self.assert_same(load_store_embeddings(path), want)
        assert read_cache(store / "emb.cache")[0]["stamp"] == store_module._stamp(path.stat())
        self.assert_same(load_store_embeddings(path), want)
        assert decoded == [str(path)]

    def test_copied_store_is_decoded_once_then_hits(self, store, monkeypatch):
        want = load_store_embeddings(store / "emb.jsonl")
        copy = store.parent / "copy"
        shutil.copytree(store, copy)  # new inodes; mtimes kept, as `cp -p` keeps them
        path, cache = copy / "emb.jsonl", copy / "emb.cache"
        after_a_tick(path)  # else the copy's ctime is racy, and no cache is written
        inode = cache.stat().st_ino
        decoded = self.count_decodes(monkeypatch)
        self.assert_same(load_store_embeddings(path), want)
        assert decoded == [str(path)]
        assert cache.stat().st_ino != inode
        assert read_cache(cache)[0]["stamp"] == store_module._stamp(path.stat())
        self.assert_same(load_store_embeddings(path), want)
        assert decoded == [str(path)]
        assert sorted(os.listdir(copy)) == ["emb.cache", "emb.jsonl"]

    @pytest.mark.parametrize("why", ["no-stamps", "future-mtime"])
    def test_untrustable_stamp_writes_no_cache(self, store, monkeypatch, why):
        # where ctime is a creation time (Windows) no stamp is trusted, and a
        # JSONL whose mtime is ahead of the clock is not trusted before then:
        # each call decodes, as with no cache
        path = store / "emb.jsonl"
        if why == "no-stamps":
            monkeypatch.setattr(store_module, "_STAMPS", False)
        else:
            future = time.time_ns() + 3600 * 10**9
            os.utime(path, ns=(future, future))
        want = load_embeddings_jsonl(path)
        decoded = self.count_decodes(monkeypatch)
        self.assert_same(load_store_embeddings(path), want)
        self.assert_same(load_store_embeddings(path), want)
        assert decoded == [str(path)] * 2
        assert sorted(os.listdir(store)) == ["emb.jsonl"]

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty", "npy", "foreign",
                                        "wrong-shape", "other-format", "trailing", "wide",
                                        "not-finite", "huge"])
    def test_unreadable_cache_is_a_miss_and_rewritten(self, store, damage):
        # every case keeps the JSONL's stamp, so it misses through its own damage
        path, cache = store / "emb.jsonl", store / "emb.cache"
        want = load_embeddings_jsonl(path)
        load_store_embeddings(path)
        data = cache.read_bytes()
        if damage == "truncated":
            cache.write_bytes(data[:-8])
        elif damage == "garbage":
            cache.write_bytes(b"\x93NUMPY" + bytes(range(256)) * 4)
        elif damage == "empty":
            cache.write_bytes(b"")
        elif damage == "npy":
            with open(cache, "wb") as fh:
                np.save(fh, want[1])
        elif damage == "foreign":  # the zip an older version wrote
            with open(cache, "wb") as fh:
                np.savez(fh, vectors=want[1])
        elif damage == "other-format":  # right key and rows, but an older decoder's
            write_cache(cache, path, format=store_module._CACHE_FORMAT - 1)
        elif damage == "trailing":  # right key and rows, then a byte more
            cache.write_bytes(data + b"\x00")
        elif damage == "wide":  # one id over 45 floats, as reshape(len(ids), -1) would read
            write_cache(cache, path, ids=["q0:0"])
        elif damage == "huge":  # a width no machine could allocate
            write_cache(cache, path, width=10**14)
        elif damage == "not-finite":
            write_cache(cache, path, rows=np.append(want[1].ravel()[:-1], np.nan).tobytes())
        else:  # the right key and rows, but a width they do not fill
            write_cache(cache, path, width=4)
        self.assert_same(load_store_embeddings(path), want)
        assert cache.read_bytes() == data
        self.assert_same(load_store_embeddings(path), want)

    def test_older_format_cache_of_a_boolean_row_is_not_trusted(self, tmp_path):
        # an older decoder read [true, false] as [1.0, 0.0] and cached it, in
        # format 5's header [format, size, sha256, stamp, width, ids]
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "vector": [1.0, 0.0]}\n{"id": "b", "vector": [true, false]}\n')
        data = path.read_bytes()
        header = [store_module._CACHE_FORMAT - 1, len(data), hashlib.sha256(data).hexdigest(),
                  store_module._stamp(path.stat()), 2, ["a", "b"]]
        (tmp_path / "emb.cache").write_bytes(
            json.dumps(header).encode() + b"\n" + np.array([[1.0, 0.0], [1.0, 0.0]]).tobytes())
        with pytest.raises(ValueError, match="line 2"):
            load_store_embeddings(path)

    @pytest.mark.parametrize("where", ["mkstemp", "write", "replace"])
    def test_failed_write_is_ignored_and_leaves_nothing(self, store, monkeypatch, where):
        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        if where == "write":
            monkeypatch.setattr(store_module.os, "fdopen",
                                lambda fd, mode: FailingWriter(io.FileIO(fd, "w")))
        else:
            owner = {"mkstemp": store_module.tempfile, "replace": store_module.os}[where]
            monkeypatch.setattr(owner, where, disk_full)
        path = store / "emb.jsonl"
        self.assert_same(load_store_embeddings(path), load_embeddings_jsonl(path))
        assert sorted(os.listdir(store)) == ["emb.jsonl"]

    def test_interrupted_write_leaves_nothing(self, store, monkeypatch):
        class Interrupted(FailingWriter):
            exc = KeyboardInterrupt()

        monkeypatch.setattr(store_module.os, "fdopen",
                            lambda fd, mode: Interrupted(io.FileIO(fd, "w")))
        with pytest.raises(KeyboardInterrupt):
            load_store_embeddings(store / "emb.jsonl")
        assert sorted(os.listdir(store)) == ["emb.jsonl"]

    def test_cache_write_makes_no_copy_of_the_rows(self, tmp_path):
        # a copy would add the rows' size to analyze's peak memory on every miss
        path = tmp_path / "emb.jsonl"
        write_rows(path, [f"q{i}:0" for i in range(200)],
                   np.random.default_rng(6).standard_normal((200, 256)))
        ids, rows = load_embeddings_jsonl(path)
        with store_module._NewCache(str(tmp_path / "emb.cache")) as new:
            tracemalloc.start()
            try:
                new.write([store_module._CACHE_FORMAT, None, rows.shape[1], ids], rows, 0o644)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < rows.nbytes / 4
        assert np.array_equal(read_cache(tmp_path / "emb.cache")[1], rows.ravel())

    def test_hit_rows_are_mapped_read_only(self, store, monkeypatch):
        path = store / "emb.jsonl"
        want = load_embeddings_jsonl(path)
        load_store_embeddings(path)
        self.no_decode(monkeypatch)
        ids, rows = load_store_embeddings(path)
        self.assert_same((ids, rows), want)
        assert not rows.flags.writeable
        assert rows.flags.aligned  # the header is padded to whole floats
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0

    def test_rows_held_across_a_rewrite_of_the_cache_stay_unchanged(self, store):
        # the cache is replaced by a rename, so the old file's pages stay mapped
        path, cache = store / "emb.jsonl", store / "emb.cache"
        want = load_embeddings_jsonl(path)
        load_store_embeddings(path)
        _, held = load_store_embeddings(path)
        assert not held.flags.writeable  # mapped
        inode = cache.stat().st_ino
        write_rows(path, ["q9:0"], np.full((1, 5), 7.0), mode="a")
        after_a_tick(path)
        ids = load_store_embeddings(path)[0]  # a miss that rewrites the cache
        assert cache.stat().st_ino != inode and len(ids) == 10
        assert load_store_embeddings(path)[1][-1].tolist() == [7.0] * 5
        assert np.array_equal(held.view(np.uint64), want[1].view(np.uint64))

    def test_cache_read_makes_no_copy_of_the_rows(self, tmp_path):
        # a hit reads the rows into their array, with no bytes object between
        path = tmp_path / "emb.jsonl"
        write_rows(path, [f"q{i}:0" for i in range(200)],
                   np.random.default_rng(6).standard_normal((200, 256)))
        after_a_tick(path)
        load_store_embeddings(path)
        tracemalloc.start()
        try:
            ids, rows = load_store_embeddings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ids) == 200
        assert peak < rows.nbytes * 1.25

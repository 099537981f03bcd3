import json

import numpy as np
import pytest

from masinfo.spectral import (
    EmbeddingSet,
    ZeroNormVector,
    TooFewRows,
    k_star,
    k_star_conditioned,
    load_embeddings_jsonl,
    mean_pairwise_cosine,
    normalize_embeddings,
)


def random_unit_rows(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def entropy_oracle(probs):
    # independent direct evaluation, no shared code path
    return -sum(p * np.log2(p) for p in probs if p > 0)


class TestNormalize:
    def test_scales_to_unit(self):
        emb = normalize_embeddings([[3.0, 4.0]])
        np.testing.assert_allclose(emb.vectors, [[0.6, 0.8]])

    def test_axis_vectors(self):
        emb = normalize_embeddings([[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(emb.vectors, [[1, 0], [0, 1]])

    def test_zero_norm_rejected(self):
        with pytest.raises(ZeroNormVector) as exc:
            normalize_embeddings([[1e-15, 0.0]])
        assert exc.value.index == 0

    def test_row_order_preserved(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((5, 3)) * 10
        emb = normalize_embeddings(raw)
        for i in range(5):
            np.testing.assert_allclose(emb.vectors[i], raw[i] / np.linalg.norm(raw[i]))


class TestGram:
    """The cosine Gram matrix G, seen through the functions that read it."""

    def test_identical_rows(self):
        emb = normalize_embeddings([[1.0, 0.0], [2.0, 0.0]])
        np.testing.assert_allclose(mean_pairwise_cosine(emb).mean_pairwise_cosine, 1.0)
        np.testing.assert_allclose(k_star(emb).k_star, 1.0)

    def test_orthogonal_rows(self):
        emb = normalize_embeddings([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(mean_pairwise_cosine(emb).mean_pairwise_cosine, 0.0)
        np.testing.assert_allclose(k_star(emb).k_star, 2.0)

    def test_sixty_degrees(self):
        # cos 60 deg = 0.5, checked against the direct dot product
        a = np.array([1.0, 0.0])
        b = np.array([np.cos(np.pi / 3), np.sin(np.pi / 3)])
        emb = normalize_embeddings([a, b])
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
            emb = normalize_embeddings([[2.0, 0.0, 0.0]] * n)
            assert abs(k_star(emb).k_star - 1.0) < 1e-6

    def test_orthogonal_is_n(self):
        for n in (2, 3, 6):
            emb = normalize_embeddings(np.eye(n))
            assert abs(k_star(emb).k_star - n) < 1e-6

    def test_cosine_point_six(self):
        # eigenvalues of rho are (1 +- 0.6)/2 by hand; entropy via the oracle
        emb = normalize_embeddings([[1.0, 0.0], [0.6, 0.8]])
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
        emb = normalize_embeddings([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
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
            perturbed = normalize_embeddings(rows + noise)
            assert abs(k_star(perturbed).k_star - base) < 1e-3

    def test_monotone_in_two_vector_cosine(self):
        previous = None
        for c in np.arange(0.0, 0.95, 0.1):
            emb = normalize_embeddings([[1.0, 0.0], [c, np.sqrt(1 - c * c)]])
            value = k_star(emb).k_star
            if previous is not None:
                assert value < previous
            previous = value


class TestConditioned:
    def test_all_correct(self):
        emb = normalize_embeddings(np.eye(3))
        c, w = k_star_conditioned(emb, [True, True, True])
        assert abs(c - 3.0) < 1e-6
        assert w is None

    def test_singletons(self):
        emb = normalize_embeddings([[1.0, 0.0], [1.0, 0.0]])
        c, w = k_star_conditioned(emb, [True, False])
        assert abs(c - 1.0) < 1e-9
        assert abs(w - 1.0) < 1e-9

    def test_block_structure(self):
        # correct pair orthogonal (K*=2), wrong pair identical (K*=1)
        emb = normalize_embeddings(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
        )
        c, w = k_star_conditioned(emb, [True, True, False, False])
        assert abs(c - 2.0) < 1e-6
        assert abs(w - 1.0) < 1e-6

    def test_mask_length_checked(self):
        emb = normalize_embeddings(np.eye(2))
        with pytest.raises(ValueError):
            k_star_conditioned(emb, [True])


class TestRedundancy:
    def test_identical_rows(self):
        emb = normalize_embeddings([[1.0, 1.0], [2.0, 2.0]])
        r = mean_pairwise_cosine(emb)
        assert abs(r.mean_pairwise_cosine - 1.0) < 1e-9
        assert r.pair_count == 1

    def test_orthogonal_rows(self):
        r = mean_pairwise_cosine(normalize_embeddings(np.eye(3)))
        assert abs(r.mean_pairwise_cosine) < 1e-9
        assert r.pair_count == 3

    def test_mixed_cosines(self):
        # pairs at cosines 0.5, 0.5, 1.0 average to 2/3
        a = [1.0, 0.0]
        b = [0.5, np.sqrt(0.75)]
        emb = normalize_embeddings([a, a, b])
        assert abs(mean_pairwise_cosine(emb).mean_pairwise_cosine - 2.0 / 3.0) < 1e-9

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            mean_pairwise_cosine(normalize_embeddings([[1.0, 0.0]]))

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
    ], ids=["null", "nan", "infinity", "minus-infinity", "overflow", "nested", "scalar",
            "string", "missing-vector"])
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

"""Effective channel counts from output embeddings.

K* = 2^H(rho) measures how many non-redundant directions a set of agent
outputs spans: 1 for clones, n for mutually orthogonal outputs, and a
smooth interpolation in between.
"""

import numpy as np

from masinfo import EmbeddingSet, k_star, k_star_conditioned, mean_pairwise_cosine


def main():
    print("== identical outputs collapse to one channel ==")
    clones = EmbeddingSet([[1.0, 0.0, 0.0]] * 5)
    print(f"  5 identical vectors -> K* = {k_star(clones).k_star:.4f}")

    print("\n== orthogonal outputs each count fully ==")
    ortho = EmbeddingSet(np.eye(5))
    print(f"  5 orthogonal vectors -> K* = {k_star(ortho).k_star:.4f}")

    print("\n== K* falls as pairwise similarity rises ==")
    for cos in (0.0, 0.3, 0.6, 0.9):
        pair = EmbeddingSet([[1.0, 0.0], [cos, np.sqrt(1 - cos * cos)]])
        s = k_star(pair)
        print(f"  cosine {cos:.1f}: eigenvalues {tuple(round(e, 3) for e in s.eigenvalues)}"
              f"  K* = {s.k_star:.4f}")

    print("\n== conditioning on correctness ==")
    # two spread-out correct outputs, two identical wrong ones
    rows = EmbeddingSet(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
    )
    c, w = k_star_conditioned(rows, [True, True, False, False])
    print(f"  K*_c = {c:.4f} (diverse correct pair)")
    print(f"  K*_w = {w:.4f} (redundant wrong pair)")
    print(f"  mean pairwise cosine = {mean_pairwise_cosine(rows).mean_pairwise_cosine:.4f}")


if __name__ == "__main__":
    main()

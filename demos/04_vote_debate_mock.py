"""Vote and Debate workflows over a deterministic mock backend.

Vote queries N agents once and takes a majority; Debate runs R rounds in
which each agent sees the previous round's answers.  The mock backend is
seeded, so transcripts are byte-identical across re-runs.
"""

import json

from masinfo.analysis import summarize_runs
from masinfo.harness import (
    DiversityPlan,
    MockChatBackend,
    MockEmbeddingBackend,
    fetch_embeddings,
    run_debate,
    run_vote,
)

TASK = {
    "id": "demo-1",
    "question": "Which option is supported by the passage?",
    "choices": ["the first claim", "the second claim", "the third claim"],
    "answer": "A",
}


def main():
    plan = DiversityPlan(
        layer="L4",
        model_pool=("model-a", "model-b"),
        persona_pool=("mathematician", "skeptic", "engineer"),
    )

    print("== vote: 5 independent agents, majority wins ==")
    scripted = MockChatBackend(seed=3, initial_answers=["A", "A", "B", "A", "C"])
    vote = run_vote(TASK, plan, 5, scripted, dataset="demo")
    for call in vote.calls:
        print(f"  [{call['agent_type_label']}] -> {call['extracted_answer']}")
    print(f"  final: {vote.final_answer} (tie: {vote.tie})")

    print("\n== debate: 3 agents, 3 rounds; followers converge ==")
    backend = MockChatBackend(seed=3, follow_majority=True, initial_answers=["A", "A", "B"])
    debate = run_debate(TASK, plan, 3, rounds=3, backend=backend, concurrency=1)
    for r in range(1, 4):
        answers = [c["extracted_answer"] for c in debate.calls if c["round"] == r]
        print(f"  round {r}: {answers}")
    print(f"  final: {debate.final_answer}  calls used: {len(debate.calls)}"
          f" (budget {debate.call_budget})")

    print("\n== transcripts embed and summarize ==")
    texts = [c["raw_output"] or "" for c in vote.calls]
    vectors = fetch_embeddings(texts, MockEmbeddingBackend(dim=8, seed=3))
    embeddings = dict(zip(vote.embedding_ids(), vectors))
    (summary,) = summarize_runs([vote], embeddings)
    print(f"  {summary.config_label}: accuracy {summary.accuracy:.2f}, "
          f"K* {summary.k_star:.3f}")

    print("\n== transcripts are deterministic ==")
    again = run_vote(
        TASK, plan, 5,
        MockChatBackend(seed=3, initial_answers=["A", "A", "B", "A", "C"]),
        dataset="demo",
    )
    same = json.dumps(vote.to_dict(), sort_keys=True) == json.dumps(again.to_dict(), sort_keys=True)
    print(f"  byte-identical re-run: {same}")


if __name__ == "__main__":
    main()

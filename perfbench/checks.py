"""Correctness checks on the program's outputs.

Each check raises ``CheckFailed`` with the first discrepancy it finds;
a run that fails one exits non-zero and reports no numbers.
"""

from __future__ import annotations

from mathcontrast.similarity import tls


class CheckFailed(Exception):
    pass


def check_eval(traces, plan_by_id: dict[str, dict], report) -> None:
    """Accuracy and latent accuracy equal the outcomes the generator planted."""
    planted_correct = planted_latent = 0
    for trace in traces:
        plan = plan_by_id[trace.problem_id]
        if trace.majority_correct != plan["majority_correct"]:
            raise CheckFailed(
                f"{trace.problem_id}: majority_correct {trace.majority_correct}, "
                f"planted {plan['majority_correct']}"
            )
        if trace.any_correct != plan["any_correct"]:
            raise CheckFailed(
                f"{trace.problem_id}: any_correct {trace.any_correct}, "
                f"planted {plan['any_correct']}"
            )
        planted_correct += plan["majority_correct"]
        planted_latent += plan["any_correct"]
    if (report.total, report.correct, report.latent_correct) != (
        len(traces),
        planted_correct,
        planted_latent,
    ):
        raise CheckFailed(
            f"report {report.correct}/{report.latent_correct} of {report.total}, "
            f"planted {planted_correct}/{planted_latent} of {len(traces)}"
        )


def check_top_k(trace, target, examples, k: int, cfg, sem) -> None:
    """The retrieved scores equal a brute-force ``tls`` over the corpus.

    Compared as sorted lists within 1e-9, so a canonical tie order may
    reorder equal scores without tripping the check.
    """
    brute = sorted(
        (tls(target, (ex.question, ex.right_formula), cfg, sem) for ex in examples),
        reverse=True,
    )[:k]
    got = sorted((score for _id, score in trace.retrieved), reverse=True)
    if len(got) != len(brute) or any(abs(a - b) > 1e-9 for a, b in zip(got, brute)):
        raise CheckFailed(f"{trace.problem_id}: top-{k} scores {got} != brute force {brute}")


def check_build(admitted, kept, reloaded, plan: dict) -> None:
    """Screening admits the planted ids, dedup drops every planted clone
    and keeps every other admitted record, and the save/reload round trip
    is equal."""
    admitted_ids = [ex.id for ex in admitted]
    if admitted_ids != plan["admitted"]:
        raise CheckFailed(f"admitted {len(admitted_ids)} ids, planted {len(plan['admitted'])}")
    kept_ids = [ex.id for ex in kept]
    survivors = sorted(set(kept_ids).intersection(plan["clones"]))
    if survivors:
        raise CheckFailed(f"planted clones survived dedup: {survivors[:5]}")
    if kept_ids != plan["kept"]:
        lost = sorted(set(plan["kept"]) - set(kept_ids))
        raise CheckFailed(f"dedup dropped records that are not clones: {lost[:5]}")
    if reloaded != kept:
        raise CheckFailed("corpus changed in the save/reload round trip")

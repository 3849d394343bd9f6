"""Seeded input generator for the benchmark.

Every input a workload feeds the program is written here as a file in
the library's own formats (corpus JSONL, problem JSONL, mock script,
screening log), together with ``plan.json``: the outcomes planted in
those inputs, which only the correctness checks read. The same seed
always gives byte-identical files.
"""

from __future__ import annotations

import json
import os
import random
import re
import string

NAMES = (
    "Leah", "Omar", "Priya", "Mateo", "Yuki", "Amara", "Lars", "Noor",
    "Chidi", "Elena", "Ravi", "Sofia", "Kwame", "Ingrid", "Tariq", "Mei",
    "Diego", "Hana", "Felix", "Zara", "Bruno", "Aiko", "Jonas", "Leila",
)
ITEMS = (
    "apples", "marbles", "stamps", "pencils", "cookies", "seashells",
    "stickers", "books", "tickets", "coins", "ribbons", "candles",
    "buttons", "kites", "lemons", "postcards", "crayons", "bottles",
    "muffins", "feathers", "puzzles", "tomatoes", "envelopes", "beads",
)
PLACES = (
    "garden", "library", "bakery", "harbor", "market", "classroom",
    "workshop", "station", "museum", "orchard", "warehouse", "kitchen",
)
SENTENCES = (
    "{name} collects {a} {item} at the {place} every {unit}.",
    "On Monday {name} bought {a} packs of {item}, each holding {b}.",
    "The {place} sells {item} for {a} dollars a dozen.",
    "{name} gave {a} {item} to a neighbour and kept the rest.",
    "A crate in the {place} holds {a} {item}, and there are {b} crates.",
    "{name} shares {a} {item} equally among {b} friends.",
    "Last {unit} the {place} received {a} boxes of {item}.",
    "Each of the {b} shelves in the {place} carries {a} {item}.",
    "{name} lost {a} {item} on the way home from the {place}.",
    "Twice a {unit}, {name} trades {a} {item} for {b} {item2}.",
)
QUESTIONS = (
    "How many {item} does {name} have now?",
    "How many {item} are left in the {place}?",
    "What is the total number of {item} in the end?",
    "How much money does {name} spend on {item}?",
)
UNITS = ("week", "month", "morning", "weekend", "season")

# Inputs come in blocks of BLOCK items, and every block has the same
# composition, shuffled by the seed: then each round of the benchmark
# (one block) does the same amount of work whatever the seed, and the
# seed varies only texts, numbers, formula trees and order.
BLOCK = 20
# Guess outcomes planted per eval problem: problems per block, and the
# counts of gold / first wrong / second wrong / abstaining guesses.
# Counts never tie at the top, so the vote does not depend on order.
OUTCOMES = {
    "right": (12, (6, 3, 0, 1)),
    "latent": (4, (3, 5, 0, 2)),
    "wrong": (4, (0, 6, 3, 1)),
}
EXTRACTION_FAILS = {True: 2, False: 18}  # 10% scripted to fail extraction
# operands per step of the formula, merged from 1-3 steps (7, 7 and 6
# per block)
SHAPES = {
    (2,): 3, (3,): 4,
    (2, 2): 2, (2, 3): 2, (3, 2): 2, (3, 3): 1,
    (2, 2, 2): 1, (2, 3, 2): 1, (3, 2, 3): 1, (3, 3, 3): 1, (2, 2, 3): 1, (3, 3, 2): 1,
}
# screening records per block: 10% near-clones, half admitted in all
RECORD_KINDS = {"clone": 2, "mixed": 8, "all_right": 6, "all_wrong": 4}
# one more operand per step than SHAPES, so that records other than the
# planted clones rarely share a formula structure
RECORD_SHAPES = {tuple(n + 1 for n in shape): count for shape, count in SHAPES.items()}


def _block(rng: random.Random, counts: dict) -> list:
    values = [value for value, count in counts.items() for _ in range(count)]
    rng.shuffle(values)
    return values


def _question(rng: random.Random, tag: str, sentences: int) -> str:
    name, item = rng.choice(NAMES), rng.choice(ITEMS)
    fill = dict(
        name=name,
        item=item,
        item2=rng.choice(ITEMS),
        place=rng.choice(PLACES),
        unit=rng.choice(UNITS),
    )
    parts = []
    for template in rng.sample(SENTENCES, sentences):
        fill.update(a=rng.randint(2, 95), b=rng.randint(2, 40))
        parts.append(template.format(**fill))
    parts.append(rng.choice(QUESTIONS).format(**fill))
    return f"[{tag}] " + " ".join(parts)


def _pseudo_question(rng: random.Random) -> str:
    """Random-letter words: any two such texts score at most ~0.55 with the
    hashed n-gram provider, far from the ~0.67 at which two records with
    the same formula structure would pass the dedup threshold."""
    words = (
        "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(3, 7)))
        for _ in range(rng.randint(7, 10))
    )
    return " ".join(words).capitalize() + "?"


def _expression(rng: random.Random, operands: int) -> tuple[str, int, str | None]:
    """Random integer expression over + - *, its exact value and its
    top-level operator (None for a bare number)."""
    if operands == 1:
        n = rng.randint(2, 60)
        return str(n), n, None
    left_n = rng.randint(1, operands - 1)
    left, lv, left_op = _expression(rng, left_n)
    right, rv, _ = _expression(rng, operands - left_n)
    op = rng.choice("+-*")
    if left_op is not None and ((op == "*" and left_op != "*") or rng.random() < 0.6):
        left = f"({left})"
    if operands - left_n > 1:
        right = f"({right})"
    value = {"+": lv + rv, "-": lv - rv, "*": lv * rv}[op]
    return f"{left} {op} {right}", value, op


def _steps(rng: random.Random, shape: tuple[int, ...]) -> list[tuple[str, int]]:
    return [_expression(rng, operands)[:2] for operands in shape]


def _random_shape(rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.randint(2, 3) for _ in range(rng.randint(1, 3)))


def _worked(steps: list[tuple[str, int]], padding: int = 0) -> str:
    """A worked solution that states each step and the final answer."""
    lines = []
    for i, (expr, value) in enumerate(steps):
        lead = "First we compute" if i == 0 else "Next we compute"
        lines.append(f"{lead} {expr} = {value}.")
        lines.extend(
            "We check that the quantities in this step match the question."
            for _ in range(padding)
        )
    lines.append(f"The answer is {steps[-1][1]}.")
    return "\n".join(lines)


def _wrong_values(gold: int) -> tuple[int, int]:
    # at least |gold| + 7 away, so far outside the scoring tolerance
    return gold + 7 + abs(gold), gold + 13 + 2 * abs(gold)


def _guess(value: int | None, padding: int, rng: random.Random) -> str:
    if value is None:
        return "I am not sure how to finish this one, so I will stop here."
    a, b = rng.randint(2, 40), rng.randint(2, 40)
    lines = [f"We start from {a} + {b} = {a + b} items in the first group."]
    lines.extend(
        f"Then step {i + 2} keeps the running total consistent with the question."
        for i in range(padding)
    )
    lines.append(f"The answer is {value}.")
    return "\n".join(lines)


def _corpus(rng: random.Random, size: int, prefix: str) -> list[dict]:
    entries = []
    for i in range(size):
        shape = _random_shape(rng)
        right = _steps(rng, shape)
        wrong = [(expr, value + 1) for expr, value in _steps(rng, shape)]
        entries.append(
            {
                "id": f"{prefix}{i:05d}",
                "question": _question(rng, f"{prefix}{i:05d}", rng.randint(2, 3)),
                "right_reasoning": _worked(right),
                "right_formula": "; ".join(expr for expr, _ in right),
                "wrong_reasoning": _worked(wrong),
                "wrong_formula": "; ".join(expr for expr, _ in wrong),
                "explanation": "The wrong answer applies the last step to the wrong quantity.",
                "gold_answer": right[-1][1],
                "source_dataset": "synthetic",
            }
        )
    return entries


def _eval_inputs(rng: random.Random, problems: int, corpus_size: int, padding: int):
    corpus = _corpus(rng, corpus_size, "C")
    records, rules, plan = [], [], []
    specs = []
    while len(specs) < problems:
        specs += zip(
            _block(rng, EXTRACTION_FAILS),
            _block(rng, {name: n for name, (n, _counts) in OUTCOMES.items()}),
            _block(rng, SHAPES),
        )
    for i, (fails, outcome, shape) in enumerate(specs[:problems]):
        pid = f"P{i:05d}"
        tag = f"[{pid}]"
        question = _question(rng, pid, rng.randint(2, 3))
        steps = _steps(rng, shape)
        gold = steps[-1][1]
        counts = OUTCOMES[outcome][1]
        w1, w2 = _wrong_values(gold)
        values = (
            [gold] * counts[0] + [w1] * counts[1] + [w2] * counts[2] + [None] * counts[3]
        )
        rng.shuffle(values)
        guesses = [_guess(v, padding, rng) for v in values]
        conditions = f"Known conditions for {tag}: the quantities stated in the question."
        if fails:
            plan_text = "Plan: reason about the totals without writing equations."
            algebra = "I could not turn these conditions into algebraic form."
        else:
            plan_text = "Plan: combine the quantities step by step as described."
            algebra = _worked(steps, padding)
        # later turns carry earlier markers in their context, so the
        # most specific rule comes first
        rules += [
            {"contains": [tag, "Please follow the examples"], "completions": guesses},
            {"contains": [tag, "algebraic form"], "completions": [algebra]},
            {"contains": [tag, "devise a plan"], "completions": [plan_text]},
            {"contains": [tag, "List the known conditions."], "completions": [conditions]},
        ]
        records.append({"id": pid, "question": question, "answer": gold})
        plan.append(
            {
                "id": pid,
                "majority_correct": outcome == "right",
                "any_correct": outcome in ("right", "latent"),
                "extraction_fails": fails,
            }
        )
    return corpus, records, {"rules": rules, "strict": True}, plan


def _screening_log(rng: random.Random, size: int):
    records, admitted, clones = [], [], []
    original = None  # the latest admitted record that is not a clone
    specs = []
    while len(specs) < size:
        specs += zip(_block(rng, RECORD_KINDS), _block(rng, RECORD_SHAPES))
    if specs[0][0] != "mixed":
        # a clone needs an admitted record before it
        swap = next(i for i, (kind, _shape) in enumerate(specs) if kind == "mixed")
        specs[0], specs[swap] = specs[swap], specs[0]
    for i, (kind, shape) in enumerate(specs[:size]):
        pid = f"S{i:05d}"
        if kind == "clone":
            # near-clone of the latest admitted original: the same question,
            # and the same formula structure with other numbers, so it
            # scores 1.0 against its source. Dedup compares it with every
            # kept example before reaching the source, as for an original.
            source = original
            attempts = [
                dict(
                    att,
                    formula=re.sub(
                        r"\d+", lambda _m: str(rng.randint(2, 60)), att["formula"]
                    ),
                )
                for att in source["attempts"]
            ]
            question = source["question"]
            gold = source["gold_answer"]
            clones.append(pid)
            admitted.append(pid)
        else:
            steps = _steps(rng, shape)
            gold = steps[-1][1]
            correct = {
                "mixed": [True, False] + [rng.random() < 0.5 for _ in range(3)],
                "all_right": [True] * 5,
                "all_wrong": [False] * 5,
            }[kind]
            rng.shuffle(correct)
            attempts = []
            for ok in correct:
                att_steps = steps if ok else _steps(rng, shape)
                answer = gold if ok else _wrong_values(gold)[0]
                attempts.append(
                    {
                        "reasoning": _worked(att_steps[:-1] + [(att_steps[-1][0], answer)]),
                        "formula": "; ".join(expr for expr, _ in att_steps),
                        "answer": answer,
                        "correct": ok,
                    }
                )
            question = _pseudo_question(rng)
            if kind == "mixed":
                admitted.append(pid)
        records.append(
            {
                "problem_id": pid,
                "question": question,
                "gold_answer": gold,
                "source_dataset": "synthetic",
                "attempt_count": len(attempts),
                "attempts": attempts,
            }
        )
        if kind == "mixed":
            original = records[-1]
    kept = [pid for pid in admitted if pid not in clones]
    return records, {"admitted": admitted, "clones": clones, "kept": kept}


def _write_jsonl(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)


# Sizes per workload: (problems, corpus entries, padding lines per
# worked completion). eval-http pads its completions, so the gateway
# carries long multi-step bodies and find_chains has real text to scan.
EVAL_SIZES = {"eval-retrieval": (200, 2000, 0), "eval-http": (200, 50, 12)}
SCREENING_RECORDS = 400


def generate(workload: str, seed: int, out_dir: str) -> dict[str, str]:
    """Write the inputs of ``workload`` for ``seed`` into ``out_dir``.

    Returns the paths written, keyed by role.
    """
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(out_dir, exist_ok=True)
    paths = {"plan": os.path.join(out_dir, "plan.json")}
    if workload == "corpus-build":
        records, plan = _screening_log(rng, SCREENING_RECORDS)
        paths["screening"] = os.path.join(out_dir, "screening.jsonl")
        _write_jsonl(paths["screening"], records)
    else:
        problems, corpus_size, padding = EVAL_SIZES[workload]
        corpus, records, script, plan = _eval_inputs(rng, problems, corpus_size, padding)
        paths.update(
            corpus=os.path.join(out_dir, "corpus.jsonl"),
            problems=os.path.join(out_dir, "problems.jsonl"),
            script=os.path.join(out_dir, "mock_script.json"),
        )
        _write_jsonl(paths["corpus"], corpus)
        _write_jsonl(paths["problems"], records)
        _write_json(paths["script"], script)
    _write_json(paths["plan"], plan)
    return paths

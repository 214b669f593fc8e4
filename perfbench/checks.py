"""Correctness checks of the charnmt benchmark.

Each check takes program outputs and returns a list of problems; an empty
list means the check passed. The benchmark reports `correct: false` when any
check finds a problem.
"""

from __future__ import annotations

import math


def parse_train_log(text: str) -> list[list[str]]:
    return [line.split("\t") for line in text.splitlines()]


def last_dev_bleu(text: str) -> float | None:
    scores = [row[4] for row in parse_train_log(text) if len(row) == 5 and row[4] != "-"]
    return float(scores[-1]) if scores else None


def check_train_log(text: str, steps: int, bleu_floor: float) -> list[str]:
    """One finite-loss line per step, numbered 1..steps; last dev BLEU >= floor."""
    rows = parse_train_log(text)
    problems = []
    if len(rows) != steps:
        problems.append(f"train.log has {len(rows)} lines for {steps} steps")
    for i, row in enumerate(rows, start=1):
        if len(row) != 5:
            problems.append(f"train.log line {i} has {len(row)} fields")
            continue
        if row[0] != str(i):
            problems.append(f"train.log line {i} is numbered {row[0]!r}")
        try:
            loss = float(row[1])
        except ValueError:
            loss = math.nan
        if not math.isfinite(loss):
            problems.append(f"train.log line {i} has loss {row[1]!r}")
    last_bleu = last_dev_bleu(text)
    if last_bleu is None:
        problems.append("train.log holds no dev BLEU")
    elif not last_bleu >= bleu_floor:
        problems.append(f"last dev BLEU {last_bleu:.4f} is below the floor {bleu_floor}")
    return problems


def check_identical_logs(texts: list[str]) -> list[str]:
    """Repeated from-scratch trainings of one config must log identically."""
    return [f"training {i + 1} logged differently from training 1"
            for i, text in enumerate(texts[1:], start=1) if text != texts[0]]


def check_reload(loaded, decoder: str, steps: int) -> list[str]:
    """`latest` reloads as the trained architecture at the final step."""
    problems = []
    if loaded.model_config.decoder != decoder:
        problems.append(f"reloaded decoder is {loaded.model_config.decoder!r}, not {decoder!r}")
    if int(loaded.state.get("step", -1)) != steps:
        problems.append(f"reloaded step is {loaded.state.get('step')}, not {steps}")
    return problems


def check_greedy_law(width1_hyps, greedy_tokens) -> list[str]:
    """Width-1 beam search must pick exactly the batched greedy tokens.

    Hypotheses the length cap closed are skipped: the two searches cap at
    different lengths, and such hypotheses already count as failures.
    """
    if len(width1_hyps) != len(greedy_tokens):
        return [f"{len(width1_hyps)} width-1 outputs for {len(greedy_tokens)} greedy outputs"]
    bad = [i for i, (h, tokens) in enumerate(zip(width1_hyps, greedy_tokens))
           if not h.truncated and list(h.tokens) != list(tokens)]
    if bad:
        return [f"width-1 tokens differ from greedy_decode on {len(bad)} lines, first {bad[0]}"]
    return []


def check_floor(name: str, value: float, floor: float) -> list[str]:
    return [] if value >= floor else [f"{name} {value:.4f} is below the floor {floor}"]

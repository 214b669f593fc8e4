"""Contract-level acceptance gate.

One test per criterion; each prints a single PASS/FAIL line (visible with
-s or in captured output) so the run doubles as a checklist. The heavier
criteria train real models and therefore dominate the suite's runtime.
"""

import math
import subprocess
import time
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from charnmt.decode import beam_search, greedy_decode, hypothesis_text
from charnmt.metrics import System, bleu, word_nll_by_frequency
from charnmt.model import Model, ModelConfig, init_params, score_pairs
from charnmt.numerics import Graph, Tensor, backward
from charnmt.synth import copy_corpus, split_pairs, transliteration_corpus
from charnmt.textpipe import (
    EOS_ID,
    RESERVED,
    MergeTable,
    Vocabulary,
    build_vocab,
    learn_bpe,
    make_batches,
    segment_line,
)
from charnmt.trainer import (
    OptimizerState,
    TrainConfig,
    _segment_pairs,
    adam_step,
    batch_nll,
    clip_gradients,
    greedy_corpus_bleu,
)

from conftest import copy_task_corpus, small_model
from fdcheck import REL_TOL, finite_difference_grads, max_relative_error
from test_trainer import hand_batch

REF_BLEU = Path(__file__).parent / "ref_bleu.pl"


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def fit(pairs, decoder, dims, step_size, batch_size, stop_nll, max_steps,
        merges_n, seed=0, on_round=None, round_steps=250):
    """Train a character-target model on (source, target) pairs.

    Stops when the batch NLL falls below `stop_nll`, when `on_round`
    (called every `round_steps` steps) returns True, or at `max_steps`.
    """
    lines = [s for s, _ in pairs]
    merges = learn_bpe(lines, merges_n)
    seg = _segment_pairs(pairs, merges, "character")
    src_vocab = build_vocab([" ".join(s) for s, _ in seg], "subword", 400)
    tgt_vocab = build_vocab([t for _, t in pairs], "character", 60)
    mc = ModelConfig(len(src_vocab), len(tgt_vocab), decoder=decoder, **dims)
    tc = TrainConfig(batch_size=batch_size, step_size=step_size,
                     target_unit="character", seed=seed)
    store = init_params(mc, seed)
    model = Model(mc, store)
    opt = OptimizerState.fresh(store)
    run = SimpleNamespace(model=model, merges=merges, src_vocab=src_vocab,
                          tgt_vocab=tgt_vocab, steps=0, nll=math.inf)
    epoch = 0
    done = False
    while not done and opt.step < max_steps:
        batches = make_batches(seg, src_vocab, tgt_vocab, 80, 500, batch_size,
                               seed=seed + epoch)
        for batch in batches:
            with Graph(store) as graph:
                loss = batch_nll(model, batch)
            grads = {k: t.data for k, t in backward(graph, loss).items()}
            grads, _ = clip_gradients(grads, tc.clip)
            adam_step(store, grads, opt, tc)
            run.nll = float(loss.data)
            if run.nll < stop_nll or opt.step >= max_steps:
                done = True
            if on_round is not None and opt.step % round_steps == 0:
                if on_round(run):
                    done = True
            if done:
                break
        epoch += 1
    run.steps = opt.step
    return run


def greedy_texts(run, lines):
    out = []
    for line in lines:
        pieces = segment_line(line, "subword", run.merges)
        ids = np.array(run.src_vocab.encode(pieces) + [EOS_ID])
        hyp = greedy_decode([run.model], ids[None, :], max_len=200)[0]
        out.append(hypothesis_text(hyp, run.tgt_vocab, "character"))
    return out


@pytest.fixture(scope="session")
def overfit_copy():
    t0 = time.time()
    runs = {
        decoder: fit(copy_corpus(), decoder,
                     dims=dict(d_emb=32, d_enc=32, d_dec=64),
                     step_size=3e-3, batch_size=8, stop_nll=0.02,
                     max_steps=2000, merges_n=4)
        for decoder in ("base", "biscale")
    }
    runs["elapsed"] = time.time() - t0
    return runs


@pytest.fixture(scope="session")
def aligned_copy():
    return {
        decoder: fit(copy_task_corpus(400), decoder,
                     dims=dict(d_emb=32, d_enc=32, d_dec=64),
                     step_size=2e-3, batch_size=32, stop_nll=0.02,
                     max_steps=2000, merges_n=8)
        for decoder in ("base", "biscale")
    }


def test_01_gradient_integrity():
    t0 = time.time()
    worst_overall, worst_at = 0.0, ""
    for decoder in ("base", "biscale"):
        for query in ("faster", "slower", "both"):
            m = small_model(11, decoder=decoder, attention_query=query)
            batch = hand_batch(
                [[5, 6, 7, EOS_ID], [8, EOS_ID]],
                [[0, 4, 5, 6, 7, 8, EOS_ID], [0, 5, EOS_ID]],
            )
            with Graph(m.store) as graph:
                loss = batch_nll(m, batch)
            analytic = backward(graph, loss)
            numeric = finite_difference_grads(
                lambda: float(batch_nll(m, batch).data), m.store)
            err, name = max_relative_error(analytic, numeric)
            if err > worst_overall:
                worst_overall, worst_at = err, f"{decoder}/{query}/{name}"
    elapsed = time.time() - t0
    report(
        "gradient integrity",
        worst_overall < REL_TOL and elapsed < 60,
        f"worst rel err {worst_overall:.2e} at {worst_at} "
        f"(tol {REL_TOL}), {elapsed:.1f}s",
    )


def test_02_biscale_gate_laws():
    m = small_model(3, decoder="biscale")
    rng = np.random.default_rng(0)
    source = np.array([[5, 6, 7, EOS_ID]])
    tokens = rng.integers(0, m.config.tgt_vocab_size, size=20)

    def run_with_gate(bias):
        m.store.assign("bi.W_g1", np.zeros_like(m.store["bi.W_g1"].data))
        m.store.assign("bi.b_g1", np.full_like(m.store["bi.b_g1"].data, bias))
        ctx, state = m.encode(source)
        steps = []
        for t in tokens:
            step = m.step_log_probs(np.array([t]), state, ctx)
            steps.append(step)
            state = step[1]
        return ctx, steps

    def outputs(step):
        logp, state, alpha = step
        return [logp, alpha, *(getattr(state, f.name) for f in fields(state))]

    _, frozen = run_with_gate(-1000.0)  # gate exactly 0: slower layer never moves
    h2_first = frozen[0][1].h2.data
    constant = all(np.array_equal(s.h2.data, h2_first) for _, s, _ in frozen)
    ctx, flushed = run_with_gate(1000.0)  # gate exactly 1: the next step forgets h1
    forgets = True
    for (_, state, _), t in zip(flushed, tokens[1:]):
        nudged = replace(state, h1=Tensor(state.h1.data + 1.0))
        a, b = (outputs(m.step_log_probs(np.array([t]), s, ctx)) for s in (state, nudged))
        forgets &= all(np.array_equal(x.data, y.data) for x, y in zip(a, b))
    report(
        "bi-scale gate laws",
        constant and forgets,
        f"h2 constant over {len(frozen)} steps with gate 0: {constant}; "
        f"next step blind to h1 with gate 1: {forgets}",
    )


def test_03_overfit_oracle(overfit_copy):
    lines = [s for s, _ in copy_corpus()]
    details = []
    ok = overfit_copy["elapsed"] < 300
    for decoder in ("base", "biscale"):
        run = overfit_copy[decoder]
        texts = greedy_texts(run, lines)
        matched = sum(t == l for t, l in zip(texts, lines))
        ok = ok and run.nll < 0.05 and run.steps <= 2000 and matched == len(lines)
        details.append(f"{decoder}: NLL {run.nll:.4f} at step {run.steps}, "
                       f"reproduced {matched}/{len(lines)}")
    report("overfit oracle", ok,
           "; ".join(details) + f"; {overfit_copy['elapsed']:.0f}s")


def test_04_character_decoding_capability():
    t0 = time.time()
    train_pairs, dev_pairs = split_pairs(transliteration_corpus(5000), 500)
    dev_src = [s for s, _ in dev_pairs]
    dev_ref = [t for _, t in dev_pairs]
    details = []
    ok = True
    for decoder in ("base", "biscale"):
        def early_stop(run):
            score = greedy_corpus_bleu(
                run.model, dev_src[:100], dev_ref[:100], run.src_vocab,
                run.merges, run.tgt_vocab, "character")
            return score >= 0.99

        run = fit(train_pairs, decoder,
                  dims=dict(d_emb=32, d_enc=48, d_dec=64, d_att=48),
                  step_size=2e-3, batch_size=32, stop_nll=0.0,
                  max_steps=3000, merges_n=150, on_round=early_stop)
        score = greedy_corpus_bleu(run.model, dev_src, dev_ref, run.src_vocab,
                                   run.merges, run.tgt_vocab, "character")
        subword_len = np.mean([len(segment_line(s, "subword", run.merges))
                               for s in dev_src])
        char_len = np.mean([len(t) for t in dev_ref])
        ok = ok and score >= 0.95
        details.append(f"{decoder}: held-out BLEU {score:.4f} at step {run.steps} "
                       f"(chars/subwords {char_len / subword_len:.1f}x)")
    elapsed = time.time() - t0
    report("character decoding capability", ok and elapsed < 1800,
           "; ".join(details) + f"; {elapsed:.0f}s")


def test_05_beam_ensemble_contracts():
    rng = np.random.default_rng(99)
    exact = dominated = ensembled = 0
    n = 100
    for i in range(n):
        m = small_model(1000 + i)
        body = rng.integers(4, m.config.src_vocab_size,
                            size=rng.integers(2, 7)).tolist()
        source = np.array(body + [EOS_ID])
        greedy = greedy_decode([m], source[None, :], max_len=25)[0]
        width1 = beam_search([m], source, width=1, max_len=25)[0][0]
        if width1.tokens == greedy.tokens and width1.score == greedy.score:
            exact += 1
        width5 = beam_search([m], source, width=5, max_len=25)[0][0]
        if width5.score >= greedy.score - 1e-9:
            dominated += 1
        duo = greedy_decode([m, m], source[None, :], max_len=25)[0]
        if duo.tokens == greedy.tokens and abs(duo.score - greedy.score) <= 1e-9:
            ensembled += 1
    report(
        "beam/ensemble contracts",
        exact == n and dominated == n and ensembled == n,
        f"width-1 == greedy on {exact}/{n}; width-5 >= greedy on "
        f"{dominated}/{n}; duplicate ensemble == single on {ensembled}/{n}",
    )


def test_06_bleu_oracle(tmp_path):
    cases = [
        (["a b c d", "e f g h"], ["a b c d", "e f g h"], 1.0),
        (["a b c d"], ["a b c d e"], math.exp(-0.25)),
        (["a b"], ["a b c d"], 0.0),
        (["the the the the"], ["the cat"], 0.0),
        (["a b c d e f"], ["a b c d"], math.exp(
            sum(math.log(p) for p in (4 / 6, 3 / 5, 2 / 4, 1 / 3)) / 4)),
        (["a b c d", "a b c d"], ["a b c d", "a b c e"], math.exp(
            sum(math.log(p) for p in (7 / 8, 5 / 6, 3 / 4, 1 / 2)) / 4)),
    ]
    hand_ok = all(abs(bleu(h, r).bleu - want) <= 1e-6 for h, r, want in cases)

    rng = np.random.default_rng(41)
    words = ["uno", "dos", "tres", "cuatro", "cinco", "seis"]
    refs, hyps = [], []
    for _ in range(100):
        ref = [words[i] for i in rng.integers(0, len(words),
                                              size=rng.integers(4, 11))]
        hyp = [w if rng.random() > 0.1 else words[rng.integers(0, len(words))]
               for w in ref]
        refs.append(" ".join(ref))
        hyps.append(" ".join(hyp))
    hyp_file = tmp_path / "hyp.txt"
    ref_file = tmp_path / "ref.txt"
    hyp_file.write_text("\n".join(hyps) + "\n", encoding="utf-8")
    ref_file.write_text("\n".join(refs) + "\n", encoding="utf-8")
    reference = float(subprocess.run(
        ["perl", str(REF_BLEU), str(hyp_file), str(ref_file)],
        capture_output=True, text=True, check=True).stdout.strip())
    ours = bleu(hyps, refs).bleu
    script_ok = round(ours, 4) == round(reference, 4)
    report(
        "BLEU oracle",
        hand_ok and script_ok,
        f"6 hand cases within 1e-6: {hand_ok}; corpus {ours:.4f} vs "
        f"reference script {reference:.4f}",
    )


def test_07_alignment_validity(aligned_copy):
    lines = [s for s, _ in copy_task_corpus(400)][:50]
    details = []
    ok = True
    for decoder in ("base", "biscale"):
        run = aligned_copy[decoder]
        worst_gap = 0.0
        mono = total = 0
        sources = [np.array(run.src_vocab.encode(segment_line(line, "subword", run.merges))
                            + [EOS_ID]) for line in lines]
        targets = [np.array(run.tgt_vocab.encode(list(line)) + [EOS_ID]) for line in lines]
        for src_ids, (_, align) in zip(sources, score_pairs(run.model, sources, targets)):
            worst_gap = max(worst_gap, float(np.abs(align.sum(axis=1) - 1).max()))
            hyp = greedy_decode([run.model], src_ids[None, :], max_len=200)[0]
            worst_gap = max(worst_gap, float(np.abs(hyp.alignments.sum(axis=1) - 1).max()))
            steps = np.diff(align.argmax(axis=1))
            mono += int(np.sum(steps >= 0))
            total += steps.size
        frac = mono / total
        ok = ok and worst_gap < 1e-6 and frac >= 0.90
        details.append(f"{decoder}: worst row-sum gap {worst_gap:.1e}, "
                       f"monotone {frac:.3f}")
    report("alignment validity", ok, "; ".join(details))


def test_08_analysis_tooling():
    src_vocab = Vocabulary("subword", list(RESERVED) + list("abcd"))
    char_vocab = Vocabulary("character", list(RESERVED) + list("uvw "))
    merges = MergeTable()
    a = System(small_model(7, src_vocab=8, tgt_vocab=8), char_vocab, "character")
    b = System(small_model(8, src_vocab=8, tgt_vocab=8), char_vocab, "character")
    pairs = [("a b", "uv w"), ("c d", "w uv"), ("a", "vw")]
    freq = {"uv": 4, "w": 2, "vw": 1}
    self_diff = word_nll_by_frequency(a, a, pairs, src_vocab, merges, freq)
    zeros = bool(self_diff) and all(v == 0.0 for _, _, v in self_diff)
    fwd = word_nll_by_frequency(a, b, pairs, src_vocab, merges, freq)
    rev = word_nll_by_frequency(b, a, pairs, src_vocab, merges, freq)
    negated = (
        [(l, c) for l, c, _ in fwd] == [(l, c) for l, c, _ in rev]
        and all(abs(x + y) < 1e-9 for (_, _, x), (_, _, y) in zip(fwd, rev))
    )
    report(
        "analysis tooling",
        zeros and negated,
        f"self-comparison all-zero over {len(self_diff)} buckets: {zeros}; "
        f"argument swap negates every bucket: {negated}",
    )

"""The benchmark's tracer patches charnmt functions by name; install and
uninstall it here so that a rename it depends on fails in the test suite,
not only when the benchmark runs."""

import importlib.util
from pathlib import Path

from charnmt import decode, trainer
from charnmt.checkpoint import FILE_NAME
from charnmt.textpipe import RESERVED, MergeTable, Vocabulary
from charnmt.trainer import TrainPaths, train

from conftest import small_model
from test_trainer import corpus_files, tiny_configs

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_and_uninstall_restores():
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"


def test_translate_corpus_runs_through_the_traced_search():
    models = [small_model(3, src_vocab=9, tgt_vocab=10)]
    src = Vocabulary("subword", list(RESERVED) + list("abcde"))
    tgt = Vocabulary("character", list(RESERVED) + list("uvwxy "))
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()
        decode.translate_corpus(models, ["a b", "c d e", "e"], src, tgt, MergeTable(),
                                "character", width=3)
    finally:
        tracer.uninstall()
    assert tracer.layers["decode.beam_search"].calls > 0
    assert tracer.counts["search_rows"] > 0


def test_train_validates_through_the_traced_bleu(tmp_path, monkeypatch):
    paths, n_src, n_tgt = corpus_files(tmp_path / "corpus")
    mc, tc = tiny_configs(n_src, n_tgt, max_steps=2, validate_every=1)
    real_save, saved = trainer.save_checkpoint, []

    def save(*args):
        directory = real_save(*args)
        saved.append((directory / FILE_NAME).stat().st_size)
        return directory

    monkeypatch.setattr(trainer, "save_checkpoint", save)
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()
        train(mc, tc, TrainPaths(**{**paths.__dict__, "out_dir": tmp_path / "run"}))
    finally:
        tracer.uninstall()
    # each of the two validations enters `_dev_nll` and `greedy_corpus_bleu`
    assert tracer.layers["trainer.validation"].calls == 4
    # the tracer counts every file in a checkpoint directory: the one file saved
    assert len(saved) >= 2 and tracer.counts["save_bytes"] == sum(saved)

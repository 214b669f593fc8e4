"""The benchmark's tracer patches charnmt functions by name; install and
uninstall it here so that a rename it depends on fails in the test suite,
not only when the benchmark runs."""

import importlib.util
from pathlib import Path

from charnmt import decode
from charnmt.textpipe import RESERVED, MergeTable, Vocabulary

from conftest import small_model

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

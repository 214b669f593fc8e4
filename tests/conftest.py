"""Shared helpers for building small models and corpora in tests."""

import numpy as np

from charnmt.model import Model, ModelConfig, init_params
from charnmt.numerics import add, affine, linear, mul, one_minus, sigmoid, tanh
from charnmt.textpipe import EOS_ID


def small_model(seed=0, decoder="base", precision="wide", src_vocab=11, tgt_vocab=9, **kw):
    cfg = ModelConfig(
        src_vocab_size=src_vocab, tgt_vocab_size=tgt_vocab,
        d_emb=4, d_enc=5, d_dec=6, decoder=decoder, precision=precision, **kw,
    )
    return Model(cfg, init_params(cfg, seed))


def random_source(rng, vocab_size=11, max_len=8):
    n = int(rng.integers(1, max_len))
    body = rng.integers(4, vocab_size, size=n)
    return np.concatenate([body, [EOS_ID]])


def composite_gru_cell(store, prefix, x, h_prev):
    """The GRU cell built from tape primitives, one node per operation.

    Same signature as `charnmt.model.gru_cell`; the oracle that the fused
    `numerics.gru` primitive and its hand-written backward must agree with.
    """
    r = sigmoid(add(linear(x, store[f"{prefix}.W_reset"]),
                    affine(h_prev, store[f"{prefix}.U_reset"], store[f"{prefix}.b_reset"])))
    u = sigmoid(add(linear(x, store[f"{prefix}.W_update"]),
                    affine(h_prev, store[f"{prefix}.U_update"], store[f"{prefix}.b_update"])))
    cand = tanh(add(linear(x, store[f"{prefix}.W_cand"]),
                    affine(mul(r, h_prev), store[f"{prefix}.U_cand"], store[f"{prefix}.b_cand"])))
    return add(mul(one_minus(u), h_prev), mul(u, cand))


def assert_arrays_close(got, want, atol=1e-10):
    """Same keys, and every array within `atol` of its counterpart."""
    assert set(got) == set(want)
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=atol, err_msg=name)

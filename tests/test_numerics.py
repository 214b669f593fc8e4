import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charnmt import numerics as nm
from charnmt.errors import ContractError, DimensionError, DomainError

from conftest import (
    add, attn_mix, log_softmax, mul, mul_const, one_minus, pick, reshape, sigmoid, softmax,
)
from fdcheck import assert_grads_close, finite_difference_grads


def wide(data):
    return nm.tensor(data, "wide")


# --- affine ---

def test_affine_identity():
    x = wide([1.0, 2.0])
    W = wide([[1.0, 0.0], [0.0, 1.0]])
    b = wide([0.0, 0.0])
    assert np.allclose(nm.affine(x, W, b).data, [1.0, 2.0])


def test_affine_hand_computed():
    # [1,1] @ [[2,3],[4,5]] + [1,1] = [7,9]
    y = nm.affine(wide([1.0, 1.0]), wide([[2.0, 3.0], [4.0, 5.0]]), wide([1.0, 1.0]))
    assert np.allclose(y.data, [7.0, 9.0])


def test_affine_zero_input_yields_bias():
    y = nm.affine(wide([0.0, 0.0]), wide([[3.0, 1.0], [2.0, 8.0]]), wide([4.0, -2.0]))
    assert np.allclose(y.data, [4.0, -2.0])


def test_affine_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(3,\).*\(2, 2\)"):
        nm.affine(wide([1.0, 2.0, 3.0]), wide(np.eye(2)), wide([0.0, 0.0]))
    with pytest.raises(DimensionError, match="bias"):
        nm.affine(wide([1.0, 2.0]), wide(np.eye(2)), wide([0.0, 0.0, 0.0]))


# --- pointwise ---

def test_sigmoid_symmetry_point():
    assert sigmoid(wide(0.0)).data == 0.5


def test_sigmoid_saturates_without_overflow():
    y = sigmoid(wide([-1000.0, 1000.0])).data
    assert y[0] == 0.0 and y[1] == 1.0


def test_tanh_odd_function():
    assert nm.tanh(wide(0.0)).data == 0.0


def test_multiply_definition():
    assert np.allclose(mul(wide([1.0, 2.0]), wide([3.0, 4.0])).data, [3.0, 8.0])


def test_pointwise_shape_mismatch():
    with pytest.raises(DimensionError):
        mul(wide([1.0, 2.0]), wide([1.0, 2.0, 3.0]))


def test_one_minus():
    assert np.allclose(one_minus(wide([0.25, 1.0])).data, [0.75, 0.0])


# --- softmax ---

def test_softmax_symmetry():
    assert np.allclose(softmax(wide([0.0, 0.0, 0.0])).data, [1 / 3] * 3)


def test_softmax_large_logits_no_overflow():
    y = softmax(wide([1000.0, 1000.0])).data
    assert np.all(np.isfinite(y)) and np.allclose(y, [0.5, 0.5])


def test_softmax_hand_computed():
    y = softmax(wide([np.log(1.0), np.log(3.0)])).data
    assert np.allclose(y, [0.25, 0.75])


def test_softmax_empty_input():
    with pytest.raises(DomainError):
        softmax(wide(np.zeros((0,))))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=7))
def test_softmax_is_probability_vector(logits):
    y = softmax(wide(logits)).data
    assert y.min() >= 0.0
    assert abs(y.sum() - 1.0) < 1e-6


def test_masked_softmax_zeroes_invalid_positions():
    y = softmax(wide([[1.0, 2.0, 3.0]]), mask=np.array([[1, 1, 0]])).data
    assert y[0, 2] == 0.0
    assert abs(y[0, :2].sum() - 1.0) < 1e-12


# --- backward: stated examples ---

def test_backward_sum_of_leaf_is_ones():
    store = nm.ParameterStore("wide")
    store.add("x", [1.0, -2.0, 3.0])
    with nm.Graph(store) as g:
        loss = nm.sum_all(store["x"])
    grads = nm.backward(g, loss)
    assert np.array_equal(grads["x"].data, np.ones(3))


def test_backward_quadratic():
    store = nm.ParameterStore("wide")
    store.add("x", [1.0, 2.0])
    with nm.Graph(store) as g:
        x = store["x"]
        loss = nm.sum_all(mul(x, x))
    grads = nm.backward(g, loss)
    assert np.allclose(grads["x"].data, [2.0, 4.0])


def test_backward_requires_scalar_loss():
    store = nm.ParameterStore("wide")
    store.add("x", [1.0, 2.0])
    with nm.Graph(store) as g:
        y = mul(store["x"], store["x"])
    with pytest.raises(ContractError):
        nm.backward(g, y)


def test_backward_loss_from_other_graph_rejected():
    store = nm.ParameterStore("wide")
    store.add("x", [1.0])
    with nm.Graph(store) as g1:
        loss = nm.sum_all(store["x"])
    with nm.Graph(store) as g2:
        nm.sum_all(store["x"])
    nm.backward(g1, loss)
    with pytest.raises(ContractError):
        nm.backward(g2, loss)


def test_backward_untouched_parameter_gets_zeros():
    store = nm.ParameterStore("wide")
    store.add("x", [1.0, 2.0])
    store.add("unused", np.ones((2, 3)))
    with nm.Graph(store) as g:
        loss = nm.sum_all(store["x"])
    grads = nm.backward(g, loss)
    assert grads["unused"].shape == (2, 3)
    assert np.all(grads["unused"].data == 0.0)


# --- gradient oracle over every primitive ---

def _rand(rng, *shape):
    return rng.uniform(-1.0, 1.0, size=shape)


def _primitive_cases():
    rng = np.random.default_rng(7)
    cases = {}

    def case(name, params, fn):
        cases[name] = (params, fn)

    case("affine_2d", {"x": _rand(rng, 3, 4), "W": _rand(rng, 4, 5), "b": _rand(rng, 5)},
         lambda s: nm.affine(s["x"], s["W"], s["b"]))
    case("affine_3d", {"x": _rand(rng, 2, 3, 4), "W": _rand(rng, 4, 2), "b": _rand(rng, 2)},
         lambda s: nm.affine(s["x"], s["W"], s["b"]))
    case("linear", {"x": _rand(rng, 3, 4), "W": _rand(rng, 4, 5)},
         lambda s: nm.linear(s["x"], s["W"]))
    case("tanh", {"x": _rand(rng, 4, 3)}, lambda s: nm.tanh(s["x"]))
    case("sigmoid", {"x": _rand(rng, 4, 3)}, lambda s: sigmoid(s["x"]))
    case("mul", {"a": _rand(rng, 3, 4), "b": _rand(rng, 3, 4)},
         lambda s: mul(s["a"], s["b"]))
    case("mul_broadcast", {"a": _rand(rng, 2, 3, 4), "b": _rand(rng, 2, 1, 4)},
         lambda s: mul(s["a"], s["b"]))
    case("add_broadcast", {"a": _rand(rng, 2, 3, 4), "b": _rand(rng, 4)},
         lambda s: add(s["a"], s["b"]))
    case("one_minus", {"x": _rand(rng, 5)}, lambda s: one_minus(s["x"]))
    case("scale", {"x": _rand(rng, 3, 2)}, lambda s: nm.scale(s["x"], 2.5))
    case("softmax", {"x": _rand(rng, 3, 6)}, lambda s: softmax(s["x"]))
    mask = np.array([[1, 1, 0, 1], [1, 0, 1, 1]])
    case("softmax_masked", {"x": _rand(rng, 2, 4)}, lambda s: softmax(s["x"], mask=mask))
    case("log_softmax", {"x": _rand(rng, 3, 6)}, lambda s: log_softmax(s["x"]))
    ids = np.array([2, 0, 2, 1])
    case("embed", {"t": _rand(rng, 3, 4)}, lambda s: nm.embed(s["t"], ids))
    case("concat", {"a": _rand(rng, 3, 2), "b": _rand(rng, 3, 4)},
         lambda s: nm.concat([s["a"], s["b"]]))
    case("stack_time", {"a": _rand(rng, 3, 2), "b": _rand(rng, 3, 2)},
         lambda s: nm.stack_time([s["a"], s["b"]]))
    case("concat_rows", {"a": _rand(rng, 3, 2), "b": _rand(rng, 1, 2), "c": _rand(rng, 2, 2)},
         lambda s: nm.concat_rows([s["a"], s["b"], s["c"]]))
    rows_inputs = {"a": _rand(rng, 4, 2), "b": _rand(rng, 4, 3, 2)}
    case("take_rows", rows_inputs, lambda s: nm.take_rows([s["a"], s["b"]], 3))
    case("take_rows_first_only", rows_inputs, lambda s: nm.take_rows([s["a"], s["b"]], 2)[0])
    case("attn_mix", {"alpha": _rand(rng, 2, 3), "ctx": _rand(rng, 2, 3, 4)},
         lambda s: attn_mix(s["alpha"], s["ctx"]))
    pick_ids = np.array([1, 3, 0])
    case("pick", {"x": _rand(rng, 3, 5)}, lambda s: pick(s["x"], pick_ids))
    case("reshape", {"x": _rand(rng, 2, 6)}, lambda s: reshape(s["x"], (3, 4)))
    case("mul_const", {"x": _rand(rng, 3, 4)},
         lambda s: mul_const(s["x"], np.linspace(0.5, 2.0, 4)))
    gru_inputs = {"x": _rand(rng, 3, 4), "h": _rand(rng, 3, 5)}
    for kind, shape in (("W", (4, 5)), ("U", (5, 5)), ("b", (5,))):
        for gate in ("r", "u", "c"):
            gru_inputs[f"{kind}_{gate}"] = _rand(rng, *shape)
    case("gru", gru_inputs, lambda s: nm.gru(*(s[name] for name in gru_inputs)))
    gru_mask = np.array([[1.0], [0.0], [1.0]])
    case("gru_masked", gru_inputs,
         lambda s: nm.gru(*(s[name] for name in gru_inputs), mask=gru_mask))

    # bi-scale step: y_emb 3, context 4, states 5 wide, batch 2
    bi_inputs = {"y": _rand(rng, 2, 3), "h1": _rand(rng, 2, 5), "g1": _rand(rng, 2, 5),
                 "h2": _rand(rng, 2, 5), "g2": _rand(rng, 2, 5), "c": _rand(rng, 2, 4)}
    for name, d_in in (("h1", 17), ("g1", 17), ("h2", 14), ("g2", 14)):
        bi_inputs[f"W_{name}"] = _rand(rng, d_in, 5)
        bi_inputs[f"b_{name}"] = _rand(rng, 5)
    bi = lambda s: nm.biscale(*(s[name] for name in bi_inputs))
    case("biscale", bi_inputs, bi)
    case("biscale_h2_only", bi_inputs, lambda s: bi(s)[1])
    case("biscale_gates_only", bi_inputs, lambda s: bi(s)[2:4])

    # attention: batch 2, 4 source positions (one padded), D 3, A 5
    att_mask = np.array([[1, 1, 1, 0], [1, 1, 1, 1]])
    att_inputs = {"y": _rand(rng, 2, 3), "q": _rand(rng, 2, 6), "keys": _rand(rng, 2, 4, 5),
                  "ann": _rand(rng, 2, 4, 3), "W_emb": _rand(rng, 3, 5),
                  "W_query": _rand(rng, 6, 5), "b": _rand(rng, 5), "v": _rand(rng, 5, 1)}
    att = lambda s: nm.attention(s["y"], s["q"], s["keys"], s["ann"], att_mask,
                                 s["W_emb"], s["W_query"], s["b"], s["v"])
    case("attention", att_inputs, att)
    case("attention_alpha_only", att_inputs, lambda s: att(s)[1])
    case("attention_context_only", att_inputs, lambda s: att(s)[0])

    out_inputs = {"a": _rand(rng, 2, 3, 2), "b": _rand(rng, 2, 3, 3), "W_h": _rand(rng, 5, 4),
                  "b_h": _rand(rng, 4), "W_l": _rand(rng, 4, 6), "b_l": _rand(rng, 6)}
    out = lambda s, targets=None: nm.output_layer(
        [s["a"], s["b"]], s["W_h"], s["b_h"], s["W_l"], s["b_l"], targets)
    case("output_layer", out_inputs, out)
    case("output_layer_targets", out_inputs,
         lambda s: out(s, np.array([[0, 5, 2], [5, 5, 1]])))

    # Weights that are outputs of other nodes: a layer's deferred weight and
    # bias terms must be summed before the backward of the node that made them.
    def gru_from_nodes(s):
        w = dict(s.items(), W_c=nm.tanh(s["p"]), b_u=nm.scale(s["q"], 3.0))
        return nm.gru(*(w[name] for name in gru_inputs))
    case("gru_weight_from_node",
         {**{k: v for k, v in gru_inputs.items() if k not in ("W_c", "b_u")},
          "p": _rand(rng, 4, 5), "q": _rand(rng, 5)}, gru_from_nodes)
    case("attention_weight_from_node",
         {**{k: v for k, v in att_inputs.items() if k != "W_query"}, "p": _rand(rng, 6, 5)},
         lambda s: nm.attention(s["y"], s["q"], s["keys"], s["ann"], att_mask, s["W_emb"],
                                nm.scale(s["p"], 2.0), s["b"], s["v"]))
    # ids repeat within each call and across the two calls on one table
    case("embed_repeated_ids", {"t": _rand(rng, 4, 3)},
         lambda s: (nm.embed(s["t"], np.array([2, 0, 2, 1])),
                    nm.embed(s["t"], np.array([[1, 2], [2, 2]]))))
    return cases


@pytest.mark.parametrize("name", sorted(_primitive_cases()))
def test_primitive_gradient_matches_finite_differences(name):
    params, fn = _primitive_cases()[name]
    store = nm.ParameterStore("wide")
    probe = None
    for pname, val in params.items():
        store.add(pname, val)

    def loss_fn():
        nonlocal probe
        with nm.Graph(store) as g:
            out = fn(store)
            outs = out if isinstance(out, tuple) else (out,)
            if probe is None:
                rng = np.random.default_rng(11)
                probe = [rng.uniform(-1, 1, o.shape) for o in outs]
            terms = [nm.sum_all(mul_const(o, p)) for o, p in zip(outs, probe)]
            loss = terms[0]
            for term in terms[1:]:
                loss = add(loss, term)
        loss_fn.graph, loss_fn.loss = g, loss
        return float(loss.data)

    loss_fn()
    analytic = nm.backward(loss_fn.graph, loss_fn.loss)
    numeric = finite_difference_grads(loss_fn, store)
    assert_grads_close(analytic, numeric)


def test_composite_graph_matches_finite_differences():
    rng = np.random.default_rng(3)
    store = nm.ParameterStore("wide")
    store.add("W1", rng.uniform(-0.5, 0.5, (4, 6)))
    store.add("b1", rng.uniform(-0.5, 0.5, 6))
    store.add("W2", rng.uniform(-0.5, 0.5, (6, 3)))
    store.add("b2", rng.uniform(-0.5, 0.5, 3))
    x = rng.uniform(-1, 1, (5, 4))
    ids = np.array([0, 2, 1, 2, 0])

    def loss_fn():
        with nm.Graph(store) as g:
            h = nm.tanh(nm.affine(nm.tensor(x, "wide"), store["W1"], store["b1"]))
            h = mul(h, sigmoid(h))
            logits = nm.affine(h, store["W2"], store["b2"])
            loss = nm.scale(nm.sum_all(pick(log_softmax(logits), ids)), -1.0)
        loss_fn.graph, loss_fn.loss = g, loss
        return float(loss.data)

    loss_fn()
    analytic = nm.backward(loss_fn.graph, loss_fn.loss)
    numeric = finite_difference_grads(loss_fn, store)
    assert_grads_close(analytic, numeric)


# --- graph behaviour ---

def test_replay_determinism_bit_identical():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, (4, 4)).astype(np.float32)

    def run():
        t = nm.Tensor(x.copy())
        return softmax(nm.tanh(mul(t, t))).data

    assert np.array_equal(run(), run())


def test_inference_mode_records_nothing():
    store = nm.ParameterStore("wide")
    store.add("x", [1.0])
    with nm.Graph(store) as g:
        pass
    nm.tanh(nm.tensor([1.0], "wide"))  # outside the graph
    assert g.nodes == []


def test_precision_mixing_rejected():
    store = nm.ParameterStore("narrow")
    store.add("x", [1.0])
    with nm.Graph(store):
        with pytest.raises(ContractError):
            nm.tanh(nm.tensor([1.0], "wide"))

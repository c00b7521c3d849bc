import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentum_planning.errors import EmptyInputError, ShapeError
from momentum_planning.interactor import (
    QueryBatch,
    WeightBundle,
    attention_weights,
    cross_attention,
    mix_history,
    mpi_forward,
    plan_head,
    score_gate,
    sigmoid,
    softmax,
)

D, K, N = 6, 3, 4


@pytest.fixture
def wb():
    return WeightBundle.seeded(D, K, N, seed=7)


def batch(rng, k=K, d=D, score_scale=1.0):
    return QueryBatch(rng.standard_normal((k, d)), score_scale * rng.standard_normal(k))


# --- primitives --------------------------------------------------------------------


def test_sigmoid_matches_logistic_form():
    x = np.linspace(-30.0, 30.0, 301)
    ref = 1.0 / (1.0 + np.exp(-x))
    np.testing.assert_allclose(sigmoid(x), ref, atol=1e-15)


def test_sigmoid_saturates_cleanly():
    assert sigmoid(np.array([1e4]))[0] == 1.0
    assert sigmoid(np.array([-1e4]))[0] == 0.0


def test_softmax_sums_to_one_with_extreme_logits():
    rng = np.random.default_rng(0)
    for _ in range(200):
        logits = rng.uniform(-50.0, 50.0, size=rng.integers(1, 9))
        w = softmax(logits)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert (w >= 0.0).all()


def test_softmax_rejects_empty():
    with pytest.raises(ShapeError):
        softmax(np.zeros(0))


# --- score gate --------------------------------------------------------------------


def test_score_gate_zero_score_halves_affine(wb):
    rows = np.random.default_rng(1).standard_normal((K, D))
    qb = QueryBatch(rows, np.zeros(K))
    affine = rows @ wb.get("mlp.W").T + wb.get("mlp.b")
    np.testing.assert_allclose(score_gate(qb, wb), 0.5 * affine, atol=1e-15)


def test_score_gate_saturates_to_affine_at_infinite_score(wb):
    rows = np.random.default_rng(2).standard_normal((K, D))
    qb = QueryBatch(rows, np.array([np.inf] * K))
    affine = rows @ wb.get("mlp.W").T + wb.get("mlp.b")
    np.testing.assert_array_equal(score_gate(qb, wb), affine)


def test_score_gate_activation_options(wb):
    rows = np.random.default_rng(3).standard_normal((K, D))
    qb = QueryBatch(rows, np.zeros(K))
    pre = rows @ wb.get("mlp.W").T + wb.get("mlp.b")
    np.testing.assert_allclose(score_gate(qb, wb, "relu"), 0.5 * np.maximum(pre, 0.0))
    np.testing.assert_allclose(score_gate(qb, wb, "tanh"), 0.5 * np.tanh(pre))
    with pytest.raises(ShapeError):
        score_gate(qb, wb, "gelu")


def test_score_gate_rejects_width_mismatch(wb):
    qb = QueryBatch(np.zeros((K, D + 1)), np.zeros(K))
    with pytest.raises(ShapeError):
        score_gate(qb, wb)


def test_query_batch_validation():
    with pytest.raises(ShapeError):
        QueryBatch(np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(ShapeError):
        QueryBatch(np.array([[np.nan, 0.0]]), np.zeros(1))
    with pytest.raises(ShapeError):
        QueryBatch(np.zeros((1, 2)), np.array([np.nan]))


# --- lstm cell ---------------------------------------------------------------------


def _reference_cell(x, h, c, w_ih, w_hh, b):
    # independent textbook cell used as the oracle
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    a = w_ih @ x + w_hh @ h + b
    d = len(b) // 4
    i, f = sig(a[:d]), sig(a[d : 2 * d])
    g, o = np.tanh(a[2 * d : 3 * d]), sig(a[3 * d :])
    c2 = f * c + i * g
    return o * np.tanh(c2), c2


def reference_rows(gated_steps, wb):
    # the oracle cell applied row by row from the zero state, oldest step first
    w_ih, w_hh, b = wb.get("lstm.W_ih"), wb.get("lstm.W_hh"), wb.get("lstm.b")
    k, d = gated_steps[0].shape
    out = np.zeros((k, d))
    for row in range(k):
        h, c = np.zeros(d), np.zeros(d)
        for gated in gated_steps:
            h, c = _reference_cell(gated[row], h, c, w_ih, w_hh, b)
        out[row] = h
    return out


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_hidden_state_stays_bounded(seed):
    rng = np.random.default_rng(seed)
    w = WeightBundle.seeded(D, K, N, seed=seed)
    hist = [QueryBatch(rng.uniform(-100.0, 100.0, (K, D)), rng.uniform(-5.0, 5.0, K))
            for _ in range(2)]
    for depth in (1, 2):
        assert np.abs(mix_history(hist[:depth], w)).max() < 1.0 + 1e-12


def test_lstm_width_mismatch(wb):
    with pytest.raises(ShapeError):
        mix_history(QueryBatch(np.zeros((K, D + 2)), np.zeros(K)), wb)


# --- history mixing ----------------------------------------------------------------


def test_mix_history_single_batch_equals_manual_rows(wb):
    rng = np.random.default_rng(5)
    qb = batch(rng)
    expect = reference_rows([score_gate(qb, wb)], wb)
    np.testing.assert_allclose(mix_history(qb, wb), expect, atol=1e-12)


def test_mix_history_two_steps_chains_states(wb):
    rng = np.random.default_rng(6)
    older, newer = batch(rng), batch(rng)
    expect = reference_rows([score_gate(older, wb), score_gate(newer, wb)], wb)
    np.testing.assert_allclose(mix_history([older, newer], wb), expect, atol=1e-12)
    # the order of the steps matters: the older batch seeds the state
    assert not np.allclose(mix_history([newer, older], wb), expect, atol=1e-12)


def test_mix_history_rejects_empty_and_mismatched(wb):
    with pytest.raises(EmptyInputError):
        mix_history([], wb)
    rng = np.random.default_rng(7)
    with pytest.raises(ShapeError):
        mix_history([batch(rng, k=K), batch(rng, k=K + 1)], wb)


# --- attention ---------------------------------------------------------------------


def test_attention_single_key_gets_full_weight(wb):
    rng = np.random.default_rng(8)
    w = attention_weights(rng.standard_normal(D), rng.standard_normal((1, D)), wb)
    assert w.tolist() == [1.0]


def test_attention_identical_keys_uniform(wb):
    rng = np.random.default_rng(9)
    key = rng.standard_normal(D)
    w = attention_weights(rng.standard_normal(D), np.tile(key, (5, 1)), wb)
    np.testing.assert_allclose(w, np.full(5, 0.2), atol=1e-15)


def test_cross_attention_is_convex_mix_of_projected_values(wb):
    rng = np.random.default_rng(10)
    q = rng.standard_normal(D)
    keys = rng.standard_normal((K, D))
    values = rng.standard_normal((K, D))
    out = cross_attention(q, keys, values, wb)
    w = attention_weights(q, keys, wb)
    expect = wb.get("attn.W_o") @ (w @ (values @ wb.get("attn.W_v").T))
    np.testing.assert_array_equal(out, expect)


def test_cross_attention_output_scales_with_w_o(wb):
    rng = np.random.default_rng(11)
    q, keys = rng.standard_normal(D), rng.standard_normal((K, D))
    base = cross_attention(q, keys, keys, wb)
    doubled = cross_attention(q, keys, keys, wb.with_tensor("attn.W_o", 2.0 * wb.get("attn.W_o")))
    np.testing.assert_array_equal(doubled, 2.0 * base)


def test_cross_attention_shape_checks(wb):
    with pytest.raises(ShapeError):
        cross_attention(np.zeros(D), np.zeros((2, D)), np.zeros((3, D)), wb)
    with pytest.raises(EmptyInputError):
        attention_weights(np.zeros(D), np.zeros((0, D)), wb)


# --- plan head and full stack ------------------------------------------------------


def test_plan_head_zero_weights_zero_outputs():
    zeros = {name: np.zeros_like(WeightBundle.seeded(D, K, N, 0).get(name)) for name in WeightBundle.seeded(D, K, N, 0).names()}
    wb0 = WeightBundle(zeros)
    rng = np.random.default_rng(12)
    trajs, scores = plan_head(rng.standard_normal(D), rng.standard_normal((5, D)), wb0)
    assert trajs.shape == (K, N, 2)
    assert not trajs.any()
    assert not scores.any()


def test_plan_head_pools_features_by_mean(wb):
    rng = np.random.default_rng(13)
    q = rng.standard_normal(D)
    feats = rng.standard_normal((4, D))
    trajs, scores = plan_head(q, feats, wb)
    z = np.concatenate([q, feats.mean(axis=0)])
    np.testing.assert_array_equal(trajs.reshape(-1), wb.get("head.W_traj") @ z + wb.get("head.b_traj"))
    np.testing.assert_array_equal(scores, wb.get("head.W_score") @ z + wb.get("head.b_score"))


def test_mpi_forward_equals_staged_composition(wb):
    rng = np.random.default_rng(14)
    hist = batch(rng)
    q = rng.standard_normal(D)
    feats = rng.standard_normal((K, D))
    trajs, scores = mpi_forward(q, hist, feats, wb)
    mixed = mix_history(hist, wb)
    refined = cross_attention(q, mixed, mixed, wb)
    exp_trajs, exp_scores = plan_head(refined, feats, wb)
    np.testing.assert_array_equal(trajs, exp_trajs)
    np.testing.assert_array_equal(scores, exp_scores)


# --- weights -----------------------------------------------------------------------


def test_seeded_weights_deterministic_and_bounded():
    a = WeightBundle.seeded(D, K, N, seed=3)
    b = WeightBundle.seeded(D, K, N, seed=3)
    c = WeightBundle.seeded(D, K, N, seed=4)
    assert a == b
    assert a != c
    bound = 1.0 / math.sqrt(D)
    for name in a.names():
        assert np.abs(a.get(name)).max() <= bound


def test_weight_bundle_shape_validation():
    wb = WeightBundle.seeded(D, K, N, seed=0)
    with pytest.raises(ShapeError):
        wb.with_tensor("mlp.b", np.zeros(D + 1))
    tensors = {name: wb.get(name) for name in wb.names()}
    del tensors["attn.W_q"]
    with pytest.raises(ShapeError):
        WeightBundle(tensors)


def test_weight_bundle_json_round_trip(tmp_path, wb):
    path = tmp_path / "weights.json"
    wb.save(path)
    again = WeightBundle.load(path)
    assert again == wb
    assert again.d_q == D and again.k == K and again.n_t == N

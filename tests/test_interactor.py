import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_head_input

from momentum_planning.errors import EmptyInputError, ShapeError
from momentum_planning.interactor import (
    WEIGHT_NAMES,
    QueryBatch,
    WeightBundle,
    _attention_logits,
    _cross_attention,
    _head_input,
    _lstm_step,
    _refined_scores,
    _score_gate,
    _score_head,
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


@pytest.mark.parametrize("lead", [(), (5,)], ids=["rows", "stacked"])
def test_absent_state_equals_the_zero_arrays_bit_for_bit(lead):
    # h = c = None is how every history run starts; it must give what zero
    # arrays give, down to the sign of zero, also where a wide input scale
    # saturates the gates
    rng = np.random.default_rng(11)
    for trial in range(60):
        d, k = int(rng.integers(2, 13)), int(rng.integers(1, 7))
        w = WeightBundle.seeded(d, k, 2, seed=trial)
        w_ih, cell = w.get("lstm.W_ih"), (w.get("lstm.W_hh"), w.get("lstm.b"))
        x = (1.0, 80.0)[trial % 2] * rng.standard_normal(lead + (k, d))
        zero = np.zeros_like(x)
        absent, zeros = _lstm_step(x @ w_ih.T, None, None, *cell), _lstm_step(x @ w_ih.T, zero, zero, *cell)
        for got, want in zip(absent, zeros):
            assert same_bits(got, want), (trial, d, k)


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


# --- leading batch axes ------------------------------------------------------------


def same_bits(batched, single):
    single = np.asarray(single)
    return batched.shape == single.shape and np.ascontiguousarray(batched).tobytes() == single.tobytes()


@st.composite
def stacked_stage_inputs(draw):
    """Leading batch axes of 0-2 dims, K 1-16 and D 1-128, and rows, scores,
    cell states and queries over them; keys share all but the last leading
    axis with the queries, which they may broadcast along as the rollout's
    history rows do against every candidate's query."""
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    k, d = draw(st.integers(1, 16)), draw(st.integers(1, 128))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    key_lead = lead[:-1] + (1,) if lead and draw(st.booleans()) else lead
    return dict(
        weights=WeightBundle.seeded(d, k, 2, seed=draw(st.integers(0, 3))),
        rows=rng.standard_normal(lead + (k, d)),
        scores=rng.standard_normal(lead + (k,)),
        h=rng.uniform(-1.0, 1.0, lead + (k, d)),
        c=rng.standard_normal(lead + (k, d)),
        query=rng.standard_normal(lead + (d,)),
        keys=rng.standard_normal(key_lead + (k, d)),
        activation=draw(st.sampled_from(["identity", "relu", "tanh"])),
    )


@given(stacked_stage_inputs())
@settings(max_examples=60, deadline=None)
def test_batched_stages_equal_the_unbatched_stage_on_every_slice(inp):
    wb, query, keys = inp["weights"], inp["query"], inp["keys"]
    w_ih, cell = wb.get("lstm.W_ih"), (wb.get("lstm.W_hh"), wb.get("lstm.b"))
    gate = _score_gate(inp["rows"], inp["scores"], wb, inp["activation"])
    lstm = _lstm_step(inp["rows"] @ w_ih.T, inp["h"], inp["c"], *cell)
    _, qp, kp, logits = _attention_logits(query, keys, wb)
    refined, (_, _, _, vp, w, ctx) = _cross_attention(query, keys, keys, wb)
    z = _head_input(refined, keys)
    scores = _score_head(z, wb)
    refined_scores = _refined_scores(query, keys, keys, wb)
    for idx in np.ndindex(*query.shape[:-1]):
        key_idx = tuple(i if n > 1 else 0 for i, n in zip(idx, keys.shape))
        one_keys = keys[key_idx]
        one_gate = _score_gate(inp["rows"][idx], inp["scores"][idx], wb, inp["activation"])
        one_lstm = _lstm_step(inp["rows"][idx] @ w_ih.T, inp["h"][idx], inp["c"][idx], *cell)
        _, one_qp, one_kp, one_logits = _attention_logits(query[idx], one_keys, wb)
        one_refined, (_, _, _, one_vp, one_w, one_ctx) = _cross_attention(query[idx], one_keys, one_keys, wb)
        one_z = _head_input(one_refined, one_keys)
        for batched, single in zip(gate + lstm, one_gate + one_lstm):
            assert same_bits(batched[idx], single)
        for batched, single in ((qp, one_qp), (logits, one_logits), (w, one_w), (ctx, one_ctx),
                                (refined, one_refined), (z, one_z)):
            assert same_bits(batched[idx], single)
        assert same_bits(kp[key_idx], one_kp) and same_bits(vp[key_idx], one_vp)
        assert same_bits(scores[idx], _score_head(one_z, wb))
        # the public one-query stages that mpi_forward composes give the same
        public = plan_head(cross_attention(query[idx], one_keys, one_keys, wb), one_keys, wb)[1]
        assert same_bits(refined_scores[idx], public)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=2), st.integers(1, 16), st.integers(1, 128), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_head_input_equals_the_concatenated_pool_bit_for_bit(lead, m, d, shared, seed):
    # one query beside the pool of its M feature rows, or stacked queries,
    # each beside its own pool or beside one pool shared along the last
    # leading axis, as the stacked selection shares a frame's pool among
    # the queries of its TTM picks
    lead = tuple(lead)
    rng = np.random.default_rng(seed)
    feat_lead = lead[:-1] + (1,) if lead and shared else lead
    query, feats = rng.standard_normal(lead + (d,)), rng.standard_normal(feat_lead + (m, d))
    got, expected = _head_input(query, feats), reference_head_input(query, feats)
    assert got.shape == expected.shape == lead + (2 * d,)
    assert got.tobytes() == expected.tobytes()


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


def _misshapen(shape):
    # a 0-d array, an extra axis, one more leading row, and no leading rows
    return [np.array(0.0), np.zeros(shape + (1,)), np.zeros((shape[0] + 1,) + shape[1:]),
            np.zeros((0,) + shape[1:])]


@pytest.mark.parametrize("name", WEIGHT_NAMES)
def test_every_misshapen_tensor_raises_shape_error(wb, name):
    tensors = {n: wb.get(n) for n in wb.names()}
    for bad in _misshapen(wb.get(name).shape):
        with pytest.raises(ShapeError):
            WeightBundle({**tensors, name: bad})
        with pytest.raises(ShapeError):
            wb.with_tensor(name, bad)


def test_with_tensor_checks_and_freezes_only_the_new_tensor(wb):
    new = wb.with_tensor("mlp.b", [1, 2, 3, 4, 5, 6])
    assert new.get("mlp.b").dtype == np.float64 and not new.get("mlp.b").flags.writeable
    assert new.get("mlp.b").tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    # the unchanged tensors are the same read-only arrays, not copies
    assert all(new.get(n) is wb.get(n) for n in wb.names() if n != "mlp.b")
    assert wb.get("mlp.b").tolist() != new.get("mlp.b").tolist()
    with pytest.raises(ShapeError, match="non-finite"):
        wb.with_tensor("mlp.b", np.r_[np.zeros(D - 1), np.inf])
    with pytest.raises(ShapeError, match="unknown weight"):
        wb.with_tensor("mlp.c", np.zeros(D))


def test_bundles_copy_and_leave_the_callers_arrays_writable(wb):
    tensors = {name: wb.get(name).copy() for name in wb.names()}
    built = WeightBundle(tensors)
    assert all(array.flags.writeable for array in tensors.values())
    tensors["mlp.b"][0] += 1.0
    assert built == wb
    a = np.arange(float(D))
    new = wb.with_tensor("mlp.b", a)
    assert a.flags.writeable and not new.get("mlp.b").flags.writeable
    a[0] = 7.0
    assert new.get("mlp.b")[0] == 0.0


def _write_weights(tmp_path, wb, edit):
    path = tmp_path / "weights.json"
    wb.save(path)
    payload = json.loads(path.read_text())
    path.write_text(json.dumps(edit(payload)))
    return path


def _extend(rec, *values):
    rec["data"] = rec["data"] + list(values)
    return rec


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda p: list(p.values()), "JSON object"),
        (lambda p: {**p, "mlp.b": _extend(p["mlp.b"], float("nan"))}, "'mlp.b'"),
        (lambda p: {**p, "lstm.b": {**p["lstm.b"], "data": p["lstm.b"]["data"][:-1]}}, "'lstm.b'"),
        (lambda p: {**p, "attn.W_q": {**p["attn.W_q"], "data": ["x"] + p["attn.W_q"]["data"][1:]}},
         "'attn.W_q'"),
    ],
    ids=["not_an_object", "stray_nan", "short_data", "non_numeric"],
)
def test_weight_bundle_load_rejects_malformed_files(tmp_path, wb, edit, match):
    path = _write_weights(tmp_path, wb, edit)
    with pytest.raises(ShapeError, match=match):
        WeightBundle.load(path)


def test_weight_bundle_json_round_trip(tmp_path, wb):
    path = tmp_path / "weights.json"
    wb.save(path)
    again = WeightBundle.load(path)
    assert again == wb
    assert again.d_q == D and again.k == K and again.n_t == N


def test_weight_bundle_save_overwrites_in_place(tmp_path, wb, monkeypatch):
    # saved over a longer file, the weights file is opened once without
    # O_TRUNC and holds exactly what a save into a new path writes
    path, fresh = tmp_path / "weights.json", tmp_path / "fresh.json"
    wb.save(fresh)
    path.write_text("x" * (2 * fresh.stat().st_size))
    inode = path.stat().st_ino
    opened, real_open = [], os.open

    def spy(file, flags, *args, **kwargs):
        opened.append(flags)
        return real_open(file, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    wb.save(path)
    monkeypatch.undo()
    assert len(opened) == 1 and not opened[0] & os.O_TRUNC
    assert path.read_bytes() == fresh.read_bytes()
    assert path.stat().st_ino == inode
    assert WeightBundle.load(path) == wb

import numpy as np
import pytest
from helpers import fd_grad, max_rel_err, reference_sq_loss_and_grads

from momentum_planning.interactor import (
    QueryBatch,
    WeightBundle,
    mpi_forward,
    trajectory_sq_loss_and_grads,
)

D, K, N = 6, 3, 4


def make_inputs(seed, depth=1):
    rng = np.random.default_rng(seed)
    hist = [
        QueryBatch(rng.standard_normal((K, D)), rng.standard_normal(K))
        for _ in range(depth)
    ]
    q = rng.standard_normal(D)
    feats = rng.standard_normal((K, D))
    return q, hist, feats


def flat_sq_loss(q, hist, feats, activation="identity"):
    def loss(weights):
        trajs, _ = mpi_forward(q, hist, feats, weights, activation)
        flat = trajs.reshape(-1)
        return float(flat @ flat)

    return loss


def test_reported_loss_matches_forward():
    wb = WeightBundle.seeded(D, K, N, seed=0)
    for depth in (1, 2):
        q, hist, feats = make_inputs(depth, depth)
        for activation in ("identity", "relu", "tanh"):
            loss, _ = trajectory_sq_loss_and_grads(q, hist, feats, wb, activation)
            assert loss == flat_sq_loss(q, hist, feats, activation)(wb), (depth, activation)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradients_match_finite_differences_depth_one(seed):
    q, hist, feats = make_inputs(seed)
    wb = WeightBundle.seeded(D, K, N, seed=seed)
    _, grads = trajectory_sq_loss_and_grads(q, hist, feats, wb)
    loss = flat_sq_loss(q, hist, feats)
    for name in wb.names():
        numeric = fd_grad(loss, wb, name)
        assert max_rel_err(grads[name], numeric) <= 1e-4, name


@pytest.mark.parametrize("seed", [3, 4])
def test_gradients_match_finite_differences_depth_two(seed):
    # depth two exercises the recurrent weights, which see zero input at depth one
    q, hist, feats = make_inputs(seed, depth=2)
    wb = WeightBundle.seeded(D, K, N, seed=seed)
    _, grads = trajectory_sq_loss_and_grads(q, hist, feats, wb)
    loss = flat_sq_loss(q, hist, feats)
    for name in wb.names():
        numeric = fd_grad(loss, wb, name)
        assert max_rel_err(grads[name], numeric) <= 1e-4, name
    assert np.abs(grads["lstm.W_hh"]).max() > 0.0


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_gradients_cover_optional_activations(activation):
    q, hist, feats = make_inputs(5, depth=2)
    wb = WeightBundle.seeded(D, K, N, seed=5)
    _, grads = trajectory_sq_loss_and_grads(q, hist, feats, wb, activation)
    loss = flat_sq_loss(q, hist, feats, activation)
    for name in ("mlp.W", "mlp.b", "lstm.W_ih", "attn.W_q", "head.W_traj"):
        numeric = fd_grad(loss, wb, name)
        assert max_rel_err(grads[name], numeric) <= 1e-4, name


def test_recurrent_and_score_grads_zero_at_depth_one():
    q, hist, feats = make_inputs(6)
    wb = WeightBundle.seeded(D, K, N, seed=6)
    _, grads = trajectory_sq_loss_and_grads(q, hist, feats, wb)
    # zero initial state means the recurrent matrix cannot influence a
    # single-step forward; score head never feeds the loss at all
    assert not grads["lstm.W_hh"].any()
    assert not grads["head.W_score"].any()
    assert not grads["head.b_score"].any()


def test_reverse_pass_is_byte_identical_to_the_reference():
    # 300 seeded draws over widths, candidate counts, horizons, depths and
    # activations; the loss and every gradient must keep their exact bytes
    rng = np.random.default_rng(20261018)
    activations = ("identity", "relu", "tanh")
    for draw in range(300):
        d, k, n = int(rng.integers(3, 13)), int(rng.integers(2, 7)), int(rng.integers(3, 9))
        depth, activation = 1 + draw % 2, activations[draw % 3]
        scale = float(rng.uniform(0.5, 3.0))
        hist = [
            QueryBatch(scale * rng.standard_normal((k, d)), scale * rng.standard_normal(k))
            for _ in range(depth)
        ]
        q, feats = rng.standard_normal(d), rng.standard_normal((k, d))
        wb = WeightBundle.seeded(d, k, n, seed=int(rng.integers(0, 2**31)))
        loss, grads = trajectory_sq_loss_and_grads(q, hist, feats, wb, activation)
        ref_loss, ref_grads = reference_sq_loss_and_grads(q, hist, feats, wb, activation)
        where = (draw, d, k, n, depth, activation)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes(), where
        assert sorted(grads) == sorted(ref_grads), where
        for name, ref in ref_grads.items():
            got = grads[name]
            assert got.dtype == ref.dtype and got.shape == ref.shape, (where, name)
            assert got.tobytes() == ref.tobytes(), (where, name)

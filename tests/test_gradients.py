import numpy as np
import pytest
from helpers import fd_grad, max_rel_err

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

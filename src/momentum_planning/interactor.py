"""Numeric blocks that refine a selected planning query against history.

Everything here is plain float64 numpy, written so a forward pass is a
composition of small, separately testable stages:

    score_gate -> lstm mixing (all K rows at once) -> cross attention -> plan head

Every stage works on whole (K, D) arrays; the only loop is the one over
the 1-2 history steps.  The private stages also take leading batch axes
((..., K, D) rows, (..., D) queries), so the rollout can run them over
frames and over every candidate a frame's query could come from in one
call each.  Each matrix product keeps its per-slice form: ``(..., K, D) @
W.T`` for the row products, ``W @ x[..., None]`` and ``a[..., None, :] @
B`` for the vector ones, which numpy's matmul computes slice by slice with
the gemm or gemv call the unbatched product makes, so a batched stage
equals the unbatched one on each slice bit for bit.  The weight container
is a named map of dense matrices, serialized to JSON with exact float
round-trip.  ``trajectory_sq_loss_and_grads`` runs the same stage code as
``mpi_forward``, keeps its intermediates, and feeds them to a
hand-derived reverse pass for the squared-norm loss over the produced
trajectories, returning a gradient for every weight entry; it exists so
the forward math can be verified against finite differences.  It skips
the score head, whose logits the loss never reads, and returns zeros for
its two tensors.

Every history run starts the cell from the zero state, passed as the
absent state ``_lstm_step(xw, None, None, ...)``.  The forward then skips
``h @ W_hh.T`` and ``f * c``; the reverse pass skips, for the step that
started from it, the W_hh gradient term, the f-gate term (``dc * c * f *
(1 - f)``, zero there) and the dh and dc it would pass further back.
Results keep the bits the zero arrays give, down to the sign of zero.

Shape conventions (D = query width, K = candidates, N = waypoints):
    query row        (D,)
    batch rows       (K, D)
    lstm weights     W_ih, W_hh: (4D, D), bias (4D,), gate order i, f, g, o
    head outputs     trajectories (K, N, 2), score logits (K,)
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyInputError, ShapeError
from .trajectory import _mean


def _shapes(d: int, k: int, n_t: int) -> dict:
    """Every weight tensor's shape for query width D, K candidates and N
    waypoints, in the bundle's name order."""
    return {
        "mlp.W": (d, d),
        "mlp.b": (d,),
        "lstm.W_ih": (4 * d, d),
        "lstm.W_hh": (4 * d, d),
        "lstm.b": (4 * d,),
        "attn.W_q": (d, d),
        "attn.W_k": (d, d),
        "attn.W_v": (d, d),
        "attn.W_o": (d, d),
        "head.W_traj": (k * n_t * 2, 2 * d),
        "head.b_traj": (k * n_t * 2,),
        "head.W_score": (k, 2 * d),
        "head.b_score": (k,),
    }


WEIGHT_NAMES = tuple(_shapes(0, 0, 0))

_ACTIVATIONS = ("identity", "relu", "tanh")


def sigmoid(x):
    # tanh form stays finite for any input magnitude
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


def softmax(logits) -> np.ndarray:
    """Overflow-safe softmax over the last axis of the logits, so a stack
    of vectors gets one softmax per row."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim == 0 or z.shape[-1] == 0:
        raise ShapeError(f"softmax expects non-empty vectors, got shape {z.shape}")
    # C order, whatever order broadcasting picks, so that each row is summed
    # the way a lone vector is
    e = np.exp(np.subtract(z, z.max(axis=-1, keepdims=True), order="C"))
    return e / e.sum(axis=-1, keepdims=True)


def _read_only(name, array) -> np.ndarray:
    # one weight tensor as a finite, read-only float64 copy: freezing the
    # caller's own array would make it read-only for the caller too
    arr = np.array(array, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ShapeError(f"{name} contains non-finite values")
    arr.setflags(write=False)
    return arr


def _apply_activation(pre, activation):
    if activation == "identity":
        return pre
    if activation == "relu":
        return np.maximum(pre, 0.0)
    if activation == "tanh":
        return np.tanh(pre)
    raise ShapeError(f"unknown activation {activation!r}; pick one of {_ACTIVATIONS}")


@dataclass(frozen=True)
class QueryBatch:
    """K query rows with their pre-activation scores."""

    rows: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ShapeError(f"rows must be (K, D) with K >= 1, got {rows.shape}")
        if len(scores) != rows.shape[0]:
            raise ShapeError(f"{rows.shape[0]} rows but {len(scores)} scores")
        if not np.isfinite(rows).all():
            raise ShapeError("query rows must be finite")
        if np.isnan(scores).any():
            raise ShapeError("scores must not be NaN")
        rows.setflags(write=False)
        scores.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "scores", scores)

    @property
    def k(self) -> int:
        return int(self.rows.shape[0])

    @property
    def width(self) -> int:
        return int(self.rows.shape[1])


class WeightBundle:
    """Named dense weights for the full refinement stack."""

    def __init__(self, tensors: dict):
        missing = [n for n in WEIGHT_NAMES if n not in tensors]
        extra = [n for n in tensors if n not in WEIGHT_NAMES]
        if missing or extra:
            raise ShapeError(f"weight names off: missing {missing}, unexpected {extra}")
        self._tensors = {name: _read_only(name, tensors[name]) for name in WEIGHT_NAMES}
        self._validate_shapes()

    def _validate_shapes(self):
        # D, K and K*N*2 are read off three tensors (0 for a 0-d one), then
        # every tensor must have its shape in the table
        t = self._tensors
        d, k, rows = ((*t[name].shape, 0)[0] for name in ("mlp.W", "head.W_score", "head.W_traj"))
        if k < 1:
            raise ShapeError(f"head.W_score must have at least one row, got {t['head.W_score'].shape}")
        for name, shape in _shapes(d, k, rows // (2 * k)).items():
            if t[name].shape != shape:
                raise ShapeError(f"{name} must have shape {shape}, got {t[name].shape}")

    @property
    def d_q(self) -> int:
        return int(self._tensors["mlp.W"].shape[0])

    @property
    def k(self) -> int:
        return int(self._tensors["head.W_score"].shape[0])

    @property
    def n_t(self) -> int:
        return int(self._tensors["head.W_traj"].shape[0] // (2 * self.k))

    def get(self, name: str) -> np.ndarray:
        if name not in self._tensors:
            raise ShapeError(f"unknown weight {name!r}")
        return self._tensors[name]

    def names(self):
        return tuple(WEIGHT_NAMES)

    def with_tensor(self, name: str, array) -> "WeightBundle":
        """A bundle with one tensor replaced; the others, already checked and
        read-only, are shared rather than checked again."""
        if name not in self._tensors:
            raise ShapeError(f"unknown weight {name!r}")
        bundle = object.__new__(WeightBundle)
        bundle._tensors = {**self._tensors, name: _read_only(name, array)}
        bundle._validate_shapes()
        return bundle

    def __eq__(self, other):
        if not isinstance(other, WeightBundle):
            return NotImplemented
        return all(np.array_equal(self._tensors[n], other._tensors[n]) for n in WEIGHT_NAMES)

    @staticmethod
    @functools.lru_cache(maxsize=4)
    def seeded(d_q: int, k: int, n_t: int, seed: int) -> "WeightBundle":
        """Uniform(-1/sqrt(D), +1/sqrt(D)) init over every entry.

        A bundle is read-only, so calls with equal arguments share one; the
        last few bundles built are kept.
        """
        if d_q < 1 or k < 1 or n_t < 1:
            raise ShapeError(f"dimensions must be positive, got {(d_q, k, n_t)}")
        rng = np.random.default_rng(seed)
        bound = 1.0 / math.sqrt(d_q)
        return WeightBundle(
            {name: rng.uniform(-bound, bound, size=shape) for name, shape in _shapes(d_q, k, n_t).items()}
        )

    def save(self, path) -> None:
        payload = {
            name: {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
            for name, arr in self._tensors.items()
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    @staticmethod
    def load(path) -> "WeightBundle":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ShapeError(f"weights file must hold a JSON object, got {type(payload).__name__}")
        tensors = {}
        for name, rec in payload.items():
            if not isinstance(rec, dict) or "shape" not in rec or "data" not in rec:
                raise ShapeError(f"weight record {name!r} must carry 'shape' and 'data'")
            try:
                tensors[name] = np.asarray(rec["data"], dtype=np.float64).reshape(rec["shape"])
            except (TypeError, ValueError) as exc:
                raise ShapeError(f"weight record {name!r}: data does not fill shape "
                                 f"{rec['shape']!r} with numbers ({exc})") from None
        return WeightBundle(tensors)


# ---------------------------------------------------------------------------
# forward stages
#
# Each stage has a private form that also returns the intermediates the
# reverse pass needs; the public stage drops them.  ``mpi_forward`` composes
# the public stages and ``trajectory_sq_loss_and_grads`` the private ones, so
# inference and the gradient run the same forward code.


def _score_gate(rows, scores, weights: WeightBundle, activation: str):
    # (..., K, D) rows and (..., K) scores; returns (pre-activation,
    # activation, sigmoid(score) column, gated rows)
    if rows.shape[-1] != weights.d_q:
        raise ShapeError(f"row width {rows.shape[-1]} != weight width {weights.d_q}")
    pre = rows @ weights.get("mlp.W").T + weights.get("mlp.b")
    act = _apply_activation(pre, activation)
    gate = sigmoid(scores)[..., None]
    return pre, act, gate, gate * act


def score_gate(batch: QueryBatch, weights: WeightBundle, activation: str = "identity") -> np.ndarray:
    """Gate each query row by its score confidence.

    Returns (K, D): sigmoid(score_k) * act(W row_k + b).
    """
    return _score_gate(batch.rows, batch.scores, weights, activation)[-1]


def _lstm_step(xw, h, c, w_hh, b):
    # one cell update for all rows of h, c (each (..., K, D)) given their
    # input product xw = x @ w_ih.T (..., K, 4D); h = c = None is the zero
    # state, which skips the recurrent product and f * c.  Steps on the same
    # rows share xw, so it is never written: the sums go to a new array, and
    # since float addition commutes, h @ w_hh.T + xw + b gives the bits of
    # x @ w_ih.T + h @ w_hh.T + b.  Returns every intermediate, gate order
    # along the 4D axis is i, f, g, o
    if h is None:
        a = xw + b
    else:
        a = h @ w_hh.T
        a += xw
        a += b
    d = a.shape[-1] // 4
    s = sigmoid(a)
    i, f, o = s[..., :d], s[..., d : 2 * d], s[..., 3 * d :]
    g = np.tanh(a[..., 2 * d : 3 * d])
    # f * 0 + i * g is i * g with -0.0 read as +0.0, which + 0.0 does too
    c_new = i * g + 0.0 if c is None else f * c + i * g
    tanh_c = np.tanh(c_new)
    return i, f, g, o, c_new, tanh_c, o * tanh_c


def _mix_history(history, weights: WeightBundle, activation: str):
    # returns (final hidden rows, per-step (batch, score-gate values, h, c,
    # cell values)) with h, c the state the step started from, None for the
    # zero state of the first step
    steps = [history] if isinstance(history, QueryBatch) else list(history)
    if not steps:
        raise EmptyInputError("history must contain at least one query batch")
    k, d = steps[0].k, steps[0].width
    if any(step.k != k or step.width != d for step in steps):
        raise ShapeError("all history batches must share K and D")
    w_ih, w_hh, b = weights.get("lstm.W_ih"), weights.get("lstm.W_hh"), weights.get("lstm.b")
    h = c = None
    tape = []
    for step in steps:
        gate = _score_gate(step.rows, step.scores, weights, activation)
        cell = _lstm_step(gate[-1] @ w_ih.T, h, c, w_hh, b)
        tape.append((step, gate, h, c, cell))
        _, _, _, _, c, _, h = cell
    return h, tape


def mix_history(
    history: QueryBatch | Sequence[QueryBatch],
    weights: WeightBundle,
    activation: str = "identity",
) -> np.ndarray:
    """Run gated history rows through the cell, all K candidates at once.

    ``history`` may be a single batch or an oldest-first sequence of
    batches; every candidate row starts from the zero state and consumes its
    row from every step in order.  Returns the final hidden rows (K, D).
    """
    return _mix_history(history, weights, activation)[0]


def _row(query) -> np.ndarray:
    # the public stages take one query, of any shape holding D values
    return np.asarray(query, dtype=np.float64).reshape(-1)


def _attention_logits(query, keys, weights: WeightBundle):
    # (..., D) queries over (..., K, D) keys; returns (query, projected
    # query, projected keys, scaled logits (..., K))
    q = np.asarray(query, dtype=np.float64)
    kk = np.asarray(keys, dtype=np.float64)
    if kk.ndim < 2 or kk.shape[-1] != q.shape[-1]:
        raise ShapeError(f"keys must be (K, {q.shape[-1]}), got {kk.shape}")
    if kk.shape[-2] == 0:
        raise EmptyInputError("attention needs at least one key row")
    qp = (weights.get("attn.W_q") @ q[..., None])[..., 0]
    kp = kk @ weights.get("attn.W_k").T
    return q, qp, kp, (kp @ qp[..., None])[..., 0] / math.sqrt(q.shape[-1])


def attention_weights(query, keys, weights: WeightBundle) -> np.ndarray:
    """Normalized attention distribution of one query over K key rows."""
    return softmax(_attention_logits(_row(query), keys, weights)[-1])


def _cross_attention(query, keys, values, weights: WeightBundle):
    # (..., D) queries over (..., K, D) keys and values; returns (refined
    # queries, (query, projected query, projected keys, projected values,
    # attention weights, context))
    vv = np.asarray(values, dtype=np.float64)
    kk = np.asarray(keys, dtype=np.float64)
    if vv.shape != kk.shape:
        raise ShapeError(f"keys {kk.shape} and values {vv.shape} must match")
    q, qp, kp, logits = _attention_logits(query, kk, weights)
    w = softmax(logits)
    vp = vv @ weights.get("attn.W_v").T
    ctx = (w[..., None, :] @ vp)[..., 0, :]
    return (weights.get("attn.W_o") @ ctx[..., None])[..., 0], (q, qp, kp, vp, w, ctx)


def cross_attention(query, keys, values, weights: WeightBundle) -> np.ndarray:
    """Single-head scaled dot-product attention; returns the refined query."""
    return _cross_attention(_row(query), keys, values, weights)[0]


def _head_input(query, instance_features):
    # (..., D) queries beside the mean of their (..., M, D) feature rows:
    # the pooled head input z (..., 2D)
    q = np.asarray(query, dtype=np.float64)
    feats = np.asarray(instance_features, dtype=np.float64)
    if feats.ndim < 2 or feats.shape[-1] != q.shape[-1]:
        raise ShapeError(f"features must be (M, {q.shape[-1]}), got {feats.shape}")
    if feats.shape[-2] == 0:
        raise EmptyInputError("plan head needs at least one instance feature row")
    pooled = _mean(feats, -2)
    # each query and its pool (one pool may serve many queries) written side
    # by side: cheaper than broadcast_to and concatenate for the stacked selection
    d = q.shape[-1]
    z = np.empty(q.shape[:-1] + (2 * d,))
    z[..., :d] = q
    z[..., d:] = pooled
    return z


def _score_head(z, weights: WeightBundle):
    # score logits (..., K) of head inputs z (..., 2D)
    return (weights.get("head.W_score") @ z[..., None])[..., 0] + weights.get("head.b_score")


def _trajectory_head(z, weights: WeightBundle):
    # flat trajectory offsets (K*N*2,) of one pooled head input z (2D,)
    return weights.get("head.W_traj") @ z + weights.get("head.b_traj")


def plan_head(query, instance_features, weights: WeightBundle):
    """Decode K trajectories and score logits from the refined query.

    Returns (trajectories (K, N, 2), score_logits (K,)).
    """
    z = _head_input(_row(query), instance_features)
    trajs = _trajectory_head(z, weights).reshape(weights.k, weights.n_t, 2)
    return trajs, _score_head(z, weights)


def _refined_scores(query, mixed, instance_features, weights: WeightBundle):
    # the score logits mpi_forward gives for (..., D) queries once the
    # history is mixed into (..., K, D) rows; the trajectory half of the
    # head, which selection never reads, is not computed
    refined, _ = _cross_attention(query, mixed, mixed, weights)
    return _score_head(_head_input(refined, instance_features), weights)


def mpi_forward(
    selected_query,
    history: QueryBatch | Sequence[QueryBatch],
    instance_features,
    weights: WeightBundle,
    activation: str = "identity",
):
    """Full refinement stack; bit-identical to composing the stages by hand."""
    mixed = mix_history(history, weights, activation)
    refined = cross_attention(selected_query, mixed, mixed, weights)
    return plan_head(refined, instance_features, weights)


# ---------------------------------------------------------------------------
# hand-derived reverse pass


def trajectory_sq_loss_and_grads(
    selected_query,
    history: QueryBatch | Sequence[QueryBatch],
    instance_features,
    weights: WeightBundle,
    activation: str = "identity",
):
    """Loss = sum of squares of every produced waypoint offset, plus the
    analytic gradient for each weight tensor.

    The forward values come from the same stage code :func:`mpi_forward`
    runs, so the loss equals the sum of squares of its trajectories bit for
    bit; the reverse pass reads every intermediate from that forward and
    works on all K candidate rows at once.
    """
    mixed, mix_tape = _mix_history(history, weights, activation)
    refined, (q_sel, qp, kp, vp, w_att, ctx) = _cross_attention(
        _row(selected_query), mixed, mixed, weights
    )
    z = _head_input(refined, instance_features)
    y = _trajectory_head(z, weights)
    loss = float(y @ y)

    d, root_d = weights.d_q, math.sqrt(weights.d_q)
    w_ih, w_hh = weights.get("lstm.W_ih"), weights.get("lstm.W_hh")
    w_k, w_v, w_o = weights.get("attn.W_k"), weights.get("attn.W_v"), weights.get("attn.W_o")
    # score logits never touch the loss; theirs are the only zero grads built
    grads = {name: np.zeros(weights.get(name).shape) for name in ("head.W_score", "head.b_score")}

    # np.dot runs the gemm/gemv that @ runs, with the same bits, in 60-90% of
    # its time on these (K, D)-sized operands (timeit, numpy 2.4, x86-64)
    dy = 2.0 * y
    grads["head.W_traj"] = dy[:, None] * z
    grads["head.b_traj"] = dy
    datt = np.dot(weights.get("head.W_traj").T, dy)[:d]

    grads["attn.W_o"] = datt[:, None] * ctx
    dctx = np.dot(w_o.T, datt)
    dw_att = np.dot(vp, dctx)
    dvp = w_att[:, None] * dctx
    dlogits = w_att * (dw_att - np.dot(w_att, dw_att))
    dqp = np.dot(kp.T, dlogits) / root_d
    dkp = dlogits[:, None] * qp / root_d
    grads["attn.W_q"] = dqp[:, None] * q_sel
    grads["attn.W_k"] = np.dot(dkp.T, mixed)
    grads["attn.W_v"] = np.dot(dvp.T, mixed)

    # back through time, every candidate row at once; the first step started
    # from the zero state, so it has no f * c term, no W_hh term and no
    # dh or dc to pass further back
    dh = np.dot(dkp, w_k) + np.dot(dvp, w_v)
    dc = None
    for step, (pre, act, gate, x), h_prev, c_prev, cell in reversed(mix_tape):
        i, f, g, o, _, tanh_c, _ = cell
        dc_out = dh * o * (1.0 - tanh_c * tanh_c)
        dc = dc_out if dc is None else dc + dc_out
        da = np.concatenate(
            [
                dc * g * i * (1.0 - i),
                np.zeros(dc.shape) if h_prev is None else dc * c_prev * f * (1.0 - f),
                dc * i * (1.0 - g * g),
                dh * tanh_c * o * (1.0 - o),
            ],
            axis=1,
        )
        d_act = np.dot(da, w_ih) * gate
        if activation == "relu":
            d_act = d_act * (pre > 0.0)
        elif activation == "tanh":
            d_act = d_act * (1.0 - act * act)
        terms = [
            ("lstm.W_ih", np.dot(da.T, x)),
            ("lstm.b", da.sum(axis=0)),
            ("mlp.W", np.dot(d_act.T, step.rows)),
            ("mlp.b", d_act.sum(axis=0)),
        ]
        if h_prev is not None:
            terms.append(("lstm.W_hh", np.dot(da.T, h_prev)))
            dh = np.dot(da, w_hh)
            dc = dc * f
        for name, term in terms:
            if name in grads:
                grads[name] += term
            else:
                grads[name] = term
    if "lstm.W_hh" not in grads:
        # one step, from the zero state: W_hh never reached the loss
        grads["lstm.W_hh"] = np.zeros(w_hh.shape)

    return loss, {name: grads[name] for name in WEIGHT_NAMES}

"""Fixed dual-encoder regression network with hand-written gradients.

Point encoder: shared per-point affine+ReLU stack 3->64->64->128->256
followed by a max-pool over the N points (permutation invariant).
Tabular encoder: affine+ReLU 2->16->32. Fusion head: affine+ReLU+affine
down to the output dimension.

Variants:
  * ``full``       point + tabular encoders, pca_k latent-score outputs
  * ``pca``        point encoder only, pca_k latent-score outputs
  * ``multimodal`` point + tabular encoders, 10 measure outputs
  * ``vanilla``    point encoder only, 10 measure outputs

Inference and training share one point encoder. It runs over chunks of
whole clouds, about POOL_CHUNK_POINTS points each (one cloud at the default
1,024 points), and max-pools the last layer before its bias and ReLU, so no
point activation exists at full (B, N, d) size. This is exact: float
addition and ReLU are monotone, so ``relu(max(z) + b) == max(relu(z + b))``.
Each chunk casts its own rows to the compute dtype, so the input is never
copied whole, and each layer writes into one buffer per call, reused by
every chunk, with its elementwise passes in place (the widest is 1 MiB in
float32, 2 MiB in float64). A GEMM row does not depend on its neighbours,
so the chunking leaves every output bit unchanged.

In float32 the hidden biases are folded out of the chunk loop. Write each
hidden activation as ``h_i = g_i + s_i``, with a constant shift per channel
and ``s_0 = 0`` for the input. Then ``relu(h_{i-1} W_i + b_i) =
max(g_{i-1} W_i, -beta_i) + beta_i`` with ``beta_i = s_{i-1} W_i + b_i``, so
a hidden layer keeps ``g_i = max(g_{i-1} W_i, -beta_i)`` and ``s_i =
beta_i``: its GEMM and one in-place clamp, where bias then ReLU take two
passes. The shifts are computed once per call, in float32 from the cast
parameters, and the last, ``s_3 W_4 + b_4``, is added to the pooled
(B, 256) features before the final ReLU. The identity is exact in real
arithmetic; in float32 the output stays within ~1e-6 relative of float64,
large shifts and dead channels included (tests check both). float64 does
not fold. It is the precision of gradient checking, and the fold spreads
every bias into all later shifts. A probe of a dead channel's bias, whose
exact derivative is zero, then moves the loss by rounding alone, which a
central difference at h = 1e-5 reads as a derivative of ~3e-10: a relative
error of 2.7e-2 against the 1e-4 the finite-difference tests allow.
Unfolded, float64 equals a per-layer ``relu(h @ W + b)`` bit for bit.

Training (``want_cache=True``) also keeps, per cloud and channel, the
point that attains the max: the critical point set of PointNet (Qi et al.,
CVPR 2017, sec. 4.3). Only those points receive gradient through the pool,
so the cache keeps their coordinates alone (84 per cloud at
initialization, 95 after default training, of 1,024), in the compute
dtype, and backward() recomputes the point layers' input rows from them
against the parameters it is given (Chen et al., 2016): layer 3's rows
through layers 0-2, keeping layer 2's rows from the way up for layer 2,
then layer 1's rows through layer 0, four layer evaluations in all.
``train.train`` runs a float32 forward on float64 parameters, so
its recomputed rows and all its gradients are float64 (mixed precision
with float64 master weights; each gradient lies within ~5e-7 of its norm
of a float64 forward's). When forward and backward share float64, as in gradient
checking, BLAS gives each row of ``h @ W`` the same bits whatever the
other rows, so the rows equal the forward's bit for bit (up to rounding
for a single critical row, whose (1, k) products NumPy sends to gemv) and
the gradients are exact (tests check both, and finite differences).
The pool's gradient is never dense: the max sends each (cloud, channel)
gradient to exactly one critical row, so backward() holds it as a
(256, n_crit) CSR matrix with one entry per cloud in each channel's row
(~99 % of a dense (n_crit, 256) one is zeros in a default batch), and
forms the last layer's weight and input gradients as sparse products;
that layer's bias gradient is the column sum of the (B, 256) pooled
gradient. Backward holds at most two row sets at once: each layer keeps
only the ReLU mask of its input rows while it forms the next gradient.

Tie rule: a channel routes its gradient to the first point that attains
the max of ``z``, the last layer's GEMM before its shift: ``h3 @ W`` in
float64, the shifted ``g3 @ W`` in float32. A shift constant per channel
moves no argmax in exact arithmetic, so the two name the same point up to
float32 near-ties. A cloud of identical points sends every channel to
point 0. A dead channel (pooled value zero after the ReLU) gets zero
gradient whichever point it names. The search pools the maxima of blocks
of _ARG_BLOCK points (exact: max rounds nothing), then takes the first
block whose max equals the pool and, in it alone, the first point that
does. A NaN equals nothing, so a non-finite ``z`` (only in an epoch whose
loss then raises FloatingPointError) has no critical point.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

__all__ = [
    "VARIANTS",
    "POINT_WIDTHS",
    "TAB_WIDTHS",
    "HEAD_HIDDEN",
    "POOL_CHUNK_POINTS",
    "ShapeMismatch",
    "check_variant",
    "uses_tabular",
    "predicts_scores",
    "output_dim",
    "param_shapes",
    "init_params",
    "forward",
    "backward",
    "paired_loss",
]

VARIANTS = ("vanilla", "multimodal", "pca", "full")

POINT_WIDTHS = (3, 64, 64, 128, 256)
TAB_WIDTHS = (2, 16, 32)
HEAD_HIDDEN = 128

# Points per chunk; a chunk holds max(1, POOL_CHUNK_POINTS // N) whole
# clouds, so its widest activation stays within a core's L2 cache.
POOL_CHUNK_POINTS = 1024
_ARG_BLOCK = 16  # points per block of the critical-point search


class ShapeMismatch(ValueError):
    pass


def uses_tabular(variant: str) -> bool:
    check_variant(variant)
    return variant in ("multimodal", "full")


def predicts_scores(variant: str) -> bool:
    check_variant(variant)
    return variant in ("pca", "full")


def output_dim(variant: str, pca_k: int = 5) -> int:
    return pca_k if predicts_scores(variant) else 10


def check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def _he_uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def _affine_relu(h, w, b, out=None):
    """relu(h @ w + b), with the bias and ReLU applied in place on the GEMM result."""
    h = np.matmul(h, w, out=out)
    h += b
    np.maximum(h, 0.0, out=h)
    return h


def _first_max(z, pooled):
    """Pool (c, N, d) ``z`` into ``pooled``; return the first point attaining it."""
    c, n, d = z.shape
    k = n // _ARG_BLOCK
    blocks = np.empty((c, -(-n // _ARG_BLOCK), d), dtype=z.dtype)
    z[:, : k * _ARG_BLOCK].reshape(c, k, _ARG_BLOCK, d).max(axis=2, out=blocks[:, :k])
    if n % _ARG_BLOCK:
        z[:, k * _ARG_BLOCK :].max(axis=1, out=blocks[:, -1])
    blocks.max(axis=1, out=pooled)
    start = (blocks == pooled[:, None]).argmax(axis=1) * _ARG_BLOCK
    block = np.minimum(start[:, None] + np.arange(_ARG_BLOCK)[:, None], n - 1)
    return start + (np.take_along_axis(z, block, axis=1) == pooled[:, None]).argmax(axis=1)


def _pooled_points(params, x, dtype, want_critical=False):
    """Max-pooled point features of (B, N, 3) clouds, chunk by chunk, each
    cast to ``dtype``; the last layer's bias (in float32, the folded shift
    of the module docstring) and ReLU come after the pool.

    With ``want_critical`` also returns, for backward(), the flat indices
    (into the B*N points) of the unique critical points (module docstring)
    in ascending order, the slot of each (cloud, channel) among them, and
    the (n_crit, 3) coordinates of those points."""
    b_dim, n_dim = x.shape[0], x.shape[1]
    last = len(POINT_WIDTHS) - 2
    weights = [params[f"point{i}.w"] for i in range(last + 1)]
    shifts = [params[f"point{i}.b"] for i in range(last + 1)]
    fold = dtype == np.float32
    if fold:  # beta_i = beta_{i-1} W_i + b_i; hidden layer i clamps at -beta_i
        for i in range(1, last + 1):
            shifts[i] = shifts[i - 1] @ weights[i] + shifts[i]
        floors = [-beta for beta in shifts[:last]]
    pooled = np.empty((b_dim, POINT_WIDTHS[-1]), dtype=dtype)
    if want_critical:
        slot = np.empty(pooled.shape, dtype=np.intp)
        index, n_rows = [], 0
    step = max(1, POOL_CHUNK_POINTS // n_dim)
    bufs = [np.empty((min(step, b_dim) * n_dim, d), dtype=dtype) for d in POINT_WIDTHS[1:]]
    for s in range(0, b_dim, step):
        h = x[s : s + step].reshape(-1, POINT_WIDTHS[0]).astype(dtype, copy=False)
        for i in range(last):
            out = bufs[i][: len(h)]
            if fold:  # rebinding h before the clamp frees the chunk's cast input
                h = np.matmul(h, weights[i], out=out)
                np.maximum(h, floors[i], out=h)
            else:
                h = _affine_relu(h, weights[i], shifts[i], out=out)
        z = np.matmul(h, weights[last], out=bufs[last][: len(h)]).reshape(-1, n_dim, POINT_WIDTHS[-1])
        if not want_critical:
            z.max(axis=1, out=pooled[s : s + step])
            continue
        arg = _first_max(z, pooled[s : s + step])
        crit, inv = np.unique(arg + n_dim * np.arange(len(arg))[:, None], return_inverse=True)
        slot[s : s + step] = inv.reshape(arg.shape) + n_rows
        n_rows += crit.size
        index.append(crit + s * n_dim)
    pooled += shifts[last]
    np.maximum(pooled, 0.0, out=pooled)
    if not want_critical:
        return pooled
    index = np.concatenate(index)
    return pooled, index, slot, x[np.divmod(index, n_dim)].astype(dtype, copy=False)


def param_shapes(variant: str, pca_k: int = 5) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter of a variant, in initialization order."""
    layers = [(f"point{i}", a, b) for i, (a, b) in enumerate(zip(POINT_WIDTHS, POINT_WIDTHS[1:]))]
    if uses_tabular(variant):
        layers += [(f"tab{i}", a, b) for i, (a, b) in enumerate(zip(TAB_WIDTHS, TAB_WIDTHS[1:]))]
    fused = POINT_WIDTHS[-1] + (TAB_WIDTHS[-1] if uses_tabular(variant) else 0)
    layers += [("head0", fused, HEAD_HIDDEN), ("head1", HEAD_HIDDEN, output_dim(variant, pca_k))]
    shapes: dict[str, tuple[int, ...]] = {}
    for name, fan_in, fan_out in layers:
        shapes[f"{name}.w"] = (fan_in, fan_out)
        shapes[f"{name}.b"] = (fan_out,)
    return shapes


def init_params(variant: str, seed: int = 0, pca_k: int = 5) -> dict[str, np.ndarray]:
    """He-uniform weights, zero biases, seeded and deterministic."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    return {
        name: _he_uniform(rng, shape[0], shape) if name.endswith(".w") else np.zeros(shape)
        for name, shape in param_shapes(variant, pca_k).items()
    }


def forward(
    params,
    points,
    tabular,
    variant: str,
    want_cache: bool = False,
    dtype=np.float64,
):
    """Run the network on a batch.

    points: (B, N, 3); tabular: (B, 2) or None when the variant ignores it.
    Returns (B, output_dim) predictions, plus the activation cache when
    requested for backward().

    Both paths run the same chunked, pool-first point encoder (see the
    module docstring), so the predictions are identical either way. With
    ``want_cache=True`` the cache keeps, of the point encoder, only the
    critical points: ``critical_index`` (flat indices into the B*N
    points), ``critical_slot`` ((B, 256) row of each cloud's channel
    among them) and ``critical_points`` (their (n_crit, 3) coordinates,
    from which backward() recomputes the hidden rows).

    ``dtype`` selects the compute precision. Gradient checking uses the
    float64 default; training and inference pass float32, which roughly
    halves the point-encoder time at ~1e-6 relative output error and
    folds the hidden biases (module docstring). The
    cache is in ``dtype`` too; backward() recomputes its rows against the
    parameters, so float64 parameters and a float64 output gradient give
    float64 gradients from a float32 cache.
    """
    check_variant(variant)
    x, dtype = np.asarray(points), np.dtype(dtype)
    if x.ndim != 3 or x.shape[1] == 0 or x.shape[2] != 3:
        raise ShapeMismatch(f"points must be (B, N, 3) with N >= 1, got {x.shape}")
    if dtype != np.float64:
        params = {k: v.astype(dtype) for k, v in params.items()}
    cache: dict = {"variant": variant}

    if want_cache:
        pooled, cache["critical_index"], cache["critical_slot"], cache["critical_points"] = (
            _pooled_points(params, x, dtype, want_critical=True)
        )
    else:
        pooled = _pooled_points(params, x, dtype)

    if uses_tabular(variant):
        if tabular is None:
            raise ShapeMismatch(f"variant {variant!r} requires tabular input")
        t = np.asarray(tabular, dtype=dtype)
        if t.ndim != 2 or t.shape != (x.shape[0], TAB_WIDTHS[0]):
            raise ShapeMismatch(f"tabular must be (B, {TAB_WIDTHS[0]}), got {t.shape}")
        cache["tab_acts"] = [t]
        for i in range(len(TAB_WIDTHS) - 1):
            t = _affine_relu(t, params[f"tab{i}.w"], params[f"tab{i}.b"])
            cache["tab_acts"].append(t)
        fused = np.concatenate([pooled, t], axis=1)
    else:
        fused = pooled
    cache["fused"] = fused

    g = _affine_relu(fused, params["head0.w"], params["head0.b"])
    cache["head_hidden"] = g
    out = g @ params["head1.w"] + params["head1.b"]
    return (out, cache) if want_cache else out


def _pool_gradient(d_pooled, slot, n_rows):
    """The (256, n_rows) CSR gradient of the pool input, channel-major: row c
    holds cloud b's ``d_pooled[b, c]`` at column ``slot[b, c]``. The clouds'
    slot blocks ascend, so each row's columns are sorted as CSR requires."""
    b_dim, d = d_pooled.shape
    indptr = np.arange(0, d * b_dim + 1, b_dim)
    return sparse.csr_array((d_pooled.T.ravel(), slot.T.ravel(), indptr), shape=(d, n_rows))


def backward(params, cache, d_out) -> dict[str, np.ndarray]:
    """Exact gradients of every parameter given d(loss)/d(output).

    The point layers run on the critical points of the cache only: each
    pooled channel's gradient goes to the row of the point it came from,
    masked where the pooled value is zero after the ReLU, and every other
    point would carry a zero gradient row (rows recomputed four layer
    evaluations a batch; the pool's gradient held sparse: module docstring).
    """
    variant = cache["variant"]
    grads: dict[str, np.ndarray] = {}

    g = cache["head_hidden"]
    grads["head1.w"] = g.T @ d_out
    grads["head1.b"] = d_out.sum(axis=0)
    dg = (d_out @ params["head1.w"].T) * (g > 0)
    fused = cache["fused"]
    grads["head0.w"] = fused.T @ dg
    grads["head0.b"] = dg.sum(axis=0)
    d_fused = dg @ params["head0.w"].T

    pool_dim = POINT_WIDTHS[-1]
    d_pooled = d_fused[:, :pool_dim] * (fused[:, :pool_dim] > 0)

    if uses_tabular(variant):
        d_t = d_fused[:, pool_dim:]
        acts = cache["tab_acts"]
        for i in reversed(range(len(TAB_WIDTHS) - 1)):
            a_in, a_out = acts[i], acts[i + 1]
            d_t = d_t * (a_out > 0)
            grads[f"tab{i}.w"] = a_in.T @ d_t
            grads[f"tab{i}.b"] = d_t.sum(axis=0)
            d_t = d_t @ params[f"tab{i}.w"].T

    pts, d_h, below = cache["critical_points"], None, None
    for i in reversed(range(len(POINT_WIDTHS) - 1)):
        if below is not None:  # layer i's input rows, kept from layer i + 1's recompute
            a, below = below, None
        else:  # recomputed, keeping layer i - 1's input rows from the way up
            a = pts
            for j in range(i):
                below = a
                a = _affine_relu(below, params[f"point{j}.w"], params[f"point{j}.b"])
        if d_h is None:  # the pool's gradient: one entry per (cloud, channel)
            d_h = _pool_gradient(d_pooled, cache["critical_slot"], len(pts))
            grads[f"point{i}.w"] = (d_h @ a).T
            grads[f"point{i}.b"] = d_pooled.sum(axis=0)
            d_h = d_h.T
        else:
            grads[f"point{i}.w"] = a.T @ d_h
            grads[f"point{i}.b"] = d_h.sum(axis=0)
        if i:
            live = a > 0
            del a
            d_h = d_h @ params[f"point{i}.w"].T
            d_h *= live
            del live
    return grads


def paired_loss(pred_a, pred_b, y_a, y_b, lam: float):
    """Paired regression loss over Siamese branches.

    L = 0.5*(MSE(pred_a, y_a) + MSE(pred_b, y_b))
        + lam * MSE(pred_a - pred_b, y_a - y_b)

    with MSE averaged over batch and output dimensions. Returns
    (loss, d_pred_a, d_pred_b).
    """
    pred_a = np.asarray(pred_a, dtype=np.float64)
    pred_b = np.asarray(pred_b, dtype=np.float64)
    y_a = np.asarray(y_a, dtype=np.float64)
    y_b = np.asarray(y_b, dtype=np.float64)
    if not (pred_a.shape == pred_b.shape == y_a.shape == y_b.shape):
        raise ShapeMismatch("all four arrays must share one shape")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    m = pred_a.size
    err_a = pred_a - y_a
    err_b = pred_b - y_b
    err_pair = (pred_a - pred_b) - (y_a - y_b)
    loss = 0.5 * (np.mean(err_a ** 2) + np.mean(err_b ** 2)) + lam * np.mean(err_pair ** 2)
    d_a = err_a / m + 2.0 * lam * err_pair / m
    d_b = err_b / m - 2.0 * lam * err_pair / m
    return float(loss), d_a, d_b

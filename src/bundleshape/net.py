"""Fixed dual-encoder regression network with hand-written gradients.

Point encoder: shared per-point affine+ReLU stack 3->64->64->128->256
followed by a max-pool over the N points (permutation invariant; ties
resolve to the lowest index). Tabular encoder: affine+ReLU 2->16->32.
Fusion head: affine+ReLU+affine down to the output dimension.

Variants:
  * ``full``       point + tabular encoders, 5 latent-score outputs
  * ``pca``        point encoder only, 5 latent-score outputs
  * ``multimodal`` point + tabular encoders, 10 measure outputs
  * ``vanilla``    point encoder only, 10 measure outputs

Training runs in float64 numpy and keeps every point activation for
backward(), which returns exact analytic gradients (validated against
finite differences in the test suite). Inference (``want_cache=False``,
float64 or float32) runs the point encoder over chunks of whole clouds,
about POOL_CHUNK_POINTS points each, and max-pools the last layer before
its bias and ReLU, so no point activation exists at full size. Both
paths give identical outputs: float addition and ReLU are monotone, so
``relu(max(z) + b) == max(relu(z + b))`` exactly.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "VARIANTS",
    "POINT_WIDTHS",
    "TAB_WIDTHS",
    "HEAD_HIDDEN",
    "POOL_CHUNK_POINTS",
    "ShapeMismatch",
    "uses_tabular",
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

# Points per inference chunk; a chunk holds max(1, POOL_CHUNK_POINTS // N)
# whole clouds, so its widest activation stays small enough for the cache.
POOL_CHUNK_POINTS = 2048


class ShapeMismatch(ValueError):
    pass


def uses_tabular(variant: str) -> bool:
    _check_variant(variant)
    return variant in ("multimodal", "full")


def output_dim(variant: str) -> int:
    _check_variant(variant)
    return 5 if variant in ("pca", "full") else 10


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def _he_uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def _affine_relu(h, w, b):
    """relu(h @ w + b), with the bias and ReLU applied in place on the GEMM result."""
    h = h @ w
    h += b
    np.maximum(h, 0.0, out=h)
    return h


def _pooled_points(params, x):
    """Max-pooled point features of (B, N, 3) clouds, chunk by chunk; the
    last layer's bias and ReLU are applied once, after the pool."""
    b_dim, n_dim = x.shape[0], x.shape[1]
    last = len(POINT_WIDTHS) - 2
    w_last = params[f"point{last}.w"]
    pooled = np.empty((b_dim, POINT_WIDTHS[-1]), dtype=np.result_type(x, w_last))
    step = max(1, POOL_CHUNK_POINTS // n_dim)
    for s in range(0, b_dim, step):
        h = x[s : s + step].reshape(-1, POINT_WIDTHS[0])
        for i in range(last):
            h = _affine_relu(h, params[f"point{i}.w"], params[f"point{i}.b"])
        z = h @ w_last
        z.reshape(-1, n_dim, z.shape[-1]).max(axis=1, out=pooled[s : s + step])
    pooled += params[f"point{last}.b"]
    np.maximum(pooled, 0.0, out=pooled)
    return pooled


def param_shapes(variant: str) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter of a variant, in initialization order."""
    layers = [(f"point{i}", a, b) for i, (a, b) in enumerate(zip(POINT_WIDTHS, POINT_WIDTHS[1:]))]
    if uses_tabular(variant):
        layers += [(f"tab{i}", a, b) for i, (a, b) in enumerate(zip(TAB_WIDTHS, TAB_WIDTHS[1:]))]
    fused = POINT_WIDTHS[-1] + (TAB_WIDTHS[-1] if uses_tabular(variant) else 0)
    layers += [("head0", fused, HEAD_HIDDEN), ("head1", HEAD_HIDDEN, output_dim(variant))]
    shapes: dict[str, tuple[int, ...]] = {}
    for name, fan_in, fan_out in layers:
        shapes[f"{name}.w"] = (fan_in, fan_out)
        shapes[f"{name}.b"] = (fan_out,)
    return shapes


def init_params(variant: str, seed: int = 0) -> dict[str, np.ndarray]:
    """He-uniform weights, zero biases, seeded and deterministic."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    return {
        name: _he_uniform(rng, shape[0], shape) if name.endswith(".w") else np.zeros(shape)
        for name, shape in param_shapes(variant).items()
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

    With ``want_cache=True`` every point activation is kept at full
    (B, N, d) size for backward(). Without it the point encoder runs in
    chunks and pools before the last bias and ReLU (see the module
    docstring); the predictions are identical either way.

    ``dtype`` selects the compute precision. Training and gradient
    checking use the float64 default; inference may pass float32, which
    roughly halves the point-encoder time at ~1e-6 relative output error.
    """
    _check_variant(variant)
    x = np.asarray(points, dtype=dtype)
    if x.ndim != 3 or x.shape[1] == 0 or x.shape[2] != 3:
        raise ShapeMismatch(f"points must be (B, N, 3) with N >= 1, got {x.shape}")
    if x.dtype != np.float64:
        params = {k: v.astype(x.dtype) for k, v in params.items()}
    cache: dict = {"variant": variant}

    if want_cache:
        # One 2-D GEMM per layer over all B*N points; reshaped views are
        # kept in the cache so backward() sees (B, N, d) activations.
        b_dim, n_dim = x.shape[0], x.shape[1]
        cache["points_acts"] = [x]
        h = x.reshape(-1, POINT_WIDTHS[0])
        for i in range(len(POINT_WIDTHS) - 1):
            h = _affine_relu(h, params[f"point{i}.w"], params[f"point{i}.b"])
            cache["points_acts"].append(h.reshape(b_dim, n_dim, -1))
        top = cache["points_acts"][-1]
        pooled = top.max(axis=1)
        cache["pool_arg"] = top.argmax(axis=1)  # first max on ties
    else:
        pooled = _pooled_points(params, x)

    if uses_tabular(variant):
        if tabular is None:
            raise ShapeMismatch(f"variant {variant!r} requires tabular input")
        t = np.asarray(tabular, dtype=x.dtype)
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


def backward(params, cache, d_out) -> dict[str, np.ndarray]:
    """Exact gradients of every parameter given d(loss)/d(output)."""
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
    d_pooled = d_fused[:, :pool_dim]

    if uses_tabular(variant):
        d_t = d_fused[:, pool_dim:]
        acts = cache["tab_acts"]
        for i in reversed(range(len(TAB_WIDTHS) - 1)):
            a_in, a_out = acts[i], acts[i + 1]
            d_t = d_t * (a_out > 0)
            grads[f"tab{i}.w"] = a_in.T @ d_t
            grads[f"tab{i}.b"] = d_t.sum(axis=0)
            d_t = d_t @ params[f"tab{i}.w"].T

    # route pooled gradient back to the argmax point of each channel
    acts = cache["points_acts"]
    top = acts[-1]
    d_h = np.zeros_like(top)
    np.put_along_axis(d_h, cache["pool_arg"][:, None, :], d_pooled[:, None, :], axis=1)

    # Flatten to (B*N, d) so each layer is one 2-D GEMM, as in forward().
    d_h = d_h.reshape(-1, d_h.shape[-1])
    for i in reversed(range(len(POINT_WIDTHS) - 1)):
        a_in = acts[i].reshape(-1, acts[i].shape[-1])
        a_out = acts[i + 1].reshape(-1, acts[i + 1].shape[-1])
        d_h = d_h * (a_out > 0)
        grads[f"point{i}.w"] = a_in.T @ d_h
        grads[f"point{i}.b"] = d_h.sum(axis=0)
        d_h = d_h @ params[f"point{i}.w"].T
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

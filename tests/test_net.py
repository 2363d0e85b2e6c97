"""Network tests: gradients, invariances, loss identities."""

import functools
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from bundleshape import net
from bundleshape.net import (
    HEAD_HIDDEN,
    POINT_WIDTHS,
    POOL_CHUNK_POINTS,
    TAB_WIDTHS,
    VARIANTS,
    ShapeMismatch,
    backward,
    forward,
    init_params,
    output_dim,
    paired_loss,
    predicts_scores,
    uses_tabular,
)


def small_inputs(rng, variant, batch=2, n_points=8):
    pts = rng.normal(size=(batch, n_points, 3))
    tab = rng.normal(size=(batch, 2)) if uses_tabular(variant) else None
    return pts, tab


class TestStructure:
    def test_variant_properties(self):
        assert output_dim("full") == 5
        assert output_dim("pca") == 5
        assert output_dim("multimodal") == 10
        assert output_dim("vanilla") == 10
        assert output_dim("full", 3) == output_dim("pca", 3) == 3
        assert output_dim("vanilla", 3) == output_dim("multimodal", 3) == 10
        assert uses_tabular("full") and uses_tabular("multimodal")
        assert not uses_tabular("pca") and not uses_tabular("vanilla")
        assert predicts_scores("full") and predicts_scores("pca")
        assert not predicts_scores("multimodal") and not predicts_scores("vanilla")
        with pytest.raises(ValueError):
            output_dim("bogus")

    def test_init_deterministic(self):
        p1 = init_params("full", seed=3)
        p2 = init_params("full", seed=3)
        for k in p1:
            np.testing.assert_array_equal(p1[k], p2[k])
        p3 = init_params("full", seed=4)
        assert any(not np.array_equal(p1[k], p3[k]) for k in p1)

    def test_init_shapes_and_zero_biases(self):
        params = init_params("full", seed=0)
        assert params["point0.w"].shape == (3, 64)
        assert params["point3.w"].shape == (128, 256)
        assert params["tab0.w"].shape == (2, 16)
        assert params["head0.w"].shape == (POINT_WIDTHS[-1] + TAB_WIDTHS[-1], HEAD_HIDDEN)
        assert params["head1.w"].shape == (HEAD_HIDDEN, 5)
        for name, arr in params.items():
            if name.endswith(".b"):
                assert np.all(arr == 0.0)

    def test_forward_output_shapes(self):
        rng = np.random.default_rng(0)
        for variant in VARIANTS:
            params = init_params(variant, seed=0)
            pts, tab = small_inputs(rng, variant, batch=3)
            out = forward(params, pts, tab, variant)
            assert out.shape == (3, output_dim(variant))

    def test_shape_errors(self):
        params = init_params("full", seed=0)
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros((2, 8, 2)), np.zeros((2, 2)), "full")
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros((2, 8, 3)), None, "full")
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros((2, 8, 3)), np.zeros((3, 2)), "full")
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros((2, 0, 3)), np.zeros((2, 2)), "full")


class TestChunkedInference:
    """The inference path (chunks of whole clouds, pooled before the last
    bias and ReLU) must give exactly the training path's predictions."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize(
        "batch, n_points",
        [
            (5, 1024),  # one cloud per chunk
            (7, 300),  # 3 clouds per chunk, last chunk holds one
            (1, 64),
            (3, 1),
            (2 * POOL_CHUNK_POINTS + 3, 1),  # two chunks of 1024 clouds, then 3
            (2, 2 * POOL_CHUNK_POINTS + 5),  # one cloud per chunk, wider than a chunk
        ],
    )
    def test_equals_cached_path(self, variant, dtype, batch, n_points):
        rng = np.random.default_rng(batch * 7919 + n_points)
        params = init_params(variant, seed=11)
        # Nonzero biases, so pooling before the last bias is exercised.
        for name in params:
            if name.endswith(".b"):
                params[name] = rng.normal(scale=0.5, size=params[name].shape)
        pts, tab = small_inputs(rng, variant, batch=batch, n_points=n_points)
        fast = forward(params, pts, tab, variant, dtype=dtype)
        cached, _ = forward(params, pts, tab, variant, want_cache=True, dtype=dtype)
        assert fast.dtype == cached.dtype == dtype
        np.testing.assert_array_equal(fast, cached)
        if dtype != np.float64:
            exact = forward(params, pts, tab, variant)
            np.testing.assert_allclose(fast, exact, rtol=1e-5, atol=1e-5 * np.abs(exact).max())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_cast_per_chunk(self, dtype):
        # Each chunk casts its own rows, so float32 and integer clouds must
        # give exactly what their float64 cast gives.
        rng = np.random.default_rng(12)
        params = random_biases(init_params("full", seed=2), rng)
        tab = rng.normal(size=(7, 2))
        for pts in (rng.normal(size=(7, 300, 3)).astype(np.float32), rng.integers(-3, 4, size=(7, 300, 3))):
            ref, ref_cache = forward(params, pts.astype(np.float64), tab, "full", want_cache=True, dtype=dtype)
            got, cache = forward(params, pts, tab, "full", want_cache=True, dtype=dtype)
            assert got.dtype == cache["critical_points"].dtype == dtype
            np.testing.assert_array_equal(got, ref)
            np.testing.assert_array_equal(cache["critical_points"], ref_cache["critical_points"])
            np.testing.assert_array_equal(forward(params, pts, tab, "full", dtype=dtype), ref)

    def test_subject_batch_memory(self):
        params = init_params("full", seed=0)
        rng = np.random.default_rng(9)
        pts, tab = rng.normal(size=(73, 1024, 3)), rng.normal(size=(73, 2))
        tracemalloc.start()
        try:
            forward(params, pts, tab, "full", dtype=np.float32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One full-size float32 activation of the 256-wide layer alone is 77 MB;
        # one cloud per chunk and no float32 copy of the whole input peak near 2.5 MB.
        assert peak < 4 * 2**20


class TestBiasFold:
    """float32 folds the hidden biases into per-channel shifts; float64,
    which gradient checking runs, keeps the textbook layers."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_float64_is_the_unfolded_network(self, variant):
        rng = np.random.default_rng(21)
        params = random_biases(init_params(variant, seed=8), rng)
        pts, tab = small_inputs(rng, variant, batch=5, n_points=300)
        h = pts.reshape(-1, 3)
        for i in range(len(POINT_WIDTHS) - 1):
            h = np.maximum(h @ params[f"point{i}.w"] + params[f"point{i}.b"], 0.0)
        fused = [h.reshape(5, 300, -1).max(axis=1)]
        if uses_tabular(variant):
            t = tab
            for i in range(len(TAB_WIDTHS) - 1):
                t = np.maximum(t @ params[f"tab{i}.w"] + params[f"tab{i}.b"], 0.0)
            fused.append(t)
        g = np.maximum(np.concatenate(fused, axis=1) @ params["head0.w"] + params["head0.b"], 0.0)
        reference = g @ params["head1.w"] + params["head1.b"]
        np.testing.assert_array_equal(forward(params, pts, tab, variant), reference)
        np.testing.assert_array_equal(forward(params, pts, tab, variant, want_cache=True)[0], reference)

    @pytest.mark.parametrize("want_cache", [False, True])
    def test_float32_with_large_shifts(self, want_cache):
        rng = np.random.default_rng(22)
        params = random_biases(init_params("full", seed=9), rng, scale=5.0)
        pts, tab = small_inputs(rng, "full", batch=4, n_points=300)
        exact, cache = forward(params, pts, tab, "full", want_cache=True)
        dead = cache["fused"][:, : POINT_WIDTHS[-1]] == 0
        assert 0.2 < dead.mean() < 0.8  # the shifts leave many channels dead, not all
        got = forward(params, pts, tab, "full", want_cache=want_cache, dtype=np.float32)
        got = got[0] if want_cache else got
        np.testing.assert_allclose(got, exact, rtol=1e-5, atol=1e-5 * np.abs(exact).max())


def dense_reference_grads(params, pts, tab, variant, d_out):
    """Textbook backward: every point activation at full (B*N, d) size and
    the pooled gradient scattered into a (B, N, 256) array at the first max
    of z = h3 @ W (the tie rule of the net module), then back through all
    B*N points."""
    b_dim, n_dim = pts.shape[:2]
    acts = [pts.reshape(-1, 3)]
    for i in range(len(POINT_WIDTHS) - 1):
        z = acts[-1] @ params[f"point{i}.w"]
        acts.append(np.maximum(z + params[f"point{i}.b"], 0.0))
    top = acts[-1].reshape(b_dim, n_dim, -1)
    tab_acts = [tab] if uses_tabular(variant) else []
    for i in range(len(TAB_WIDTHS) - 1 if tab_acts else 0):
        tab_acts.append(np.maximum(tab_acts[-1] @ params[f"tab{i}.w"] + params[f"tab{i}.b"], 0.0))
    fused = np.concatenate([top.max(axis=1)] + tab_acts[-1:], axis=1)
    g = np.maximum(fused @ params["head0.w"] + params["head0.b"], 0.0)
    grads = {"head1.w": g.T @ d_out, "head1.b": d_out.sum(axis=0)}
    d = (d_out @ params["head1.w"].T) * (g > 0)
    grads["head0.w"], grads["head0.b"] = fused.T @ d, d.sum(axis=0)
    d_fused = d @ params["head0.w"].T
    d_top = np.zeros_like(top)
    arg = z.reshape(b_dim, n_dim, -1).argmax(axis=1)
    np.put_along_axis(d_top, arg[:, None], d_fused[:, None, : POINT_WIDTHS[-1]], axis=1)
    chains = [("point", acts, d_top.reshape(b_dim * n_dim, -1))]
    if tab_acts:
        chains.append(("tab", tab_acts, d_fused[:, POINT_WIDTHS[-1] :]))
    for name, a, d in chains:
        for i in reversed(range(len(a) - 1)):
            d = d * (a[i + 1] > 0)
            grads[f"{name}{i}.w"], grads[f"{name}{i}.b"] = a[i].T @ d, d.sum(axis=0)
            d = d @ params[f"{name}{i}.w"].T
    return grads


def random_biases(params, rng, scale=0.5):
    for name in params:
        if name.endswith(".b"):
            params[name] = rng.normal(scale=scale, size=params[name].shape)
    return params


class TestCriticalRows:
    """Training keeps only each cloud's critical points (the argmax rows of
    the pool); backward() on those rows must give the dense gradients."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize(
        "batch, n_points",
        [
            (32, 1024),  # one training batch, one cloud per chunk
            (7, 300),  # 3 clouds per chunk, last chunk holds one
            (3, 1),
            (2, 2 * POOL_CHUNK_POINTS + 5),  # one cloud per chunk, wider than a chunk
            (2 * POOL_CHUNK_POINTS + 3, 1),  # two chunks of 1024 clouds, then 3
        ],
    )
    def test_matches_dense_reference(self, variant, batch, n_points):
        rng = np.random.default_rng(batch * 31 + n_points)
        params = random_biases(init_params(variant, seed=5), rng)
        pts, tab = small_inputs(rng, variant, batch=batch, n_points=n_points)
        d_out = rng.normal(size=(batch, output_dim(variant)))
        _, cache = forward(params, pts, tab, variant, want_cache=True)
        grads = backward(params, cache, d_out)
        ref = dense_reference_grads(params, pts, tab, variant, d_out)
        assert sorted(grads) == sorted(params) == sorted(ref)
        for name in params:
            np.testing.assert_allclose(
                grads[name], ref[name], rtol=0, atol=1e-12 * np.abs(ref[name]).max(), err_msg=name
            )
        # Each cloud keeps between one and 256 distinct points.
        per_cloud = np.bincount(cache["critical_index"] // n_points, minlength=batch)
        assert per_cloud.min() >= 1 and per_cloud.max() <= min(n_points, POINT_WIDTHS[-1])
        assert per_cloud.sum() == len(cache["critical_points"])

    def test_identical_points_route_to_point_0(self):
        rng = np.random.default_rng(8)
        params = random_biases(init_params("multimodal", seed=8), rng)
        n_points = 300
        pts = np.repeat(rng.normal(size=(3, 1, 3)), n_points, axis=1)
        tab = rng.normal(size=(3, 2))
        d_out = rng.normal(size=(3, output_dim("multimodal")))
        _, cache = forward(params, pts, tab, "multimodal", want_cache=True)
        # Every channel ties on every point; each cloud keeps its point 0 only.
        np.testing.assert_array_equal(cache["critical_index"], np.arange(3) * n_points)
        np.testing.assert_array_equal(cache["critical_slot"], np.repeat(np.arange(3)[:, None], 256, 1))
        grads = backward(params, cache, d_out)
        ref = dense_reference_grads(params, pts, tab, "multimodal", d_out)
        for name in params:
            np.testing.assert_allclose(grads[name], ref[name], rtol=1e-12, atol=1e-15, err_msg=name)

    def test_training_batch_memory(self):
        params = init_params("full", seed=0)
        rng = np.random.default_rng(10)
        pts, tab = rng.normal(size=(32, 1024, 3)), rng.normal(size=(32, 2))
        tracemalloc.start()
        try:
            preds, cache = forward(params, pts, tab, "full", want_cache=True)
            backward(params, cache, np.ones_like(preds))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One full-size float64 activation of the 256-wide layer alone is 67 MB;
        # one cloud per chunk, no hidden rows in the cache and a backward that
        # holds at most two row sets, the pool's gradient sparse, peak near
        # 5.6 MiB. A dense (n_crit, 256) pool gradient adds ~2.5 MiB; a
        # backward that recomputes layer 2's input rows while it holds layer
        # 3's dense gradient, ~1 MiB.
        assert peak < 6 * 2**20
        # The point encoder caches coordinates only: at most 256 points per cloud.
        assert cache["critical_points"].size <= len(pts) * POINT_WIDTHS[-1] * 3


class TestRecomputedRows:
    """backward() recomputes the critical points' hidden rows from their
    coordinates. It relies on BLAS giving each row of ``h @ W`` the same bits
    whatever the other rows are, so rows and gradients must match, bit for
    bit, those gathered from one forward over all B*N points. A single
    critical row is the exception: NumPy sends its (1, k) products to gemv,
    not gemm, so it matches to rounding only."""

    @pytest.mark.parametrize(
        "batch, n_points, identical",
        [
            (32, 1024, False),
            (3, 1, False),
            (2, 2 * POOL_CHUNK_POINTS + 5, False),
            (1, 64, True),  # one critical row
        ],
    )
    def test_bitwise_equal_to_gathered_rows(self, monkeypatch, batch, n_points, identical):
        assert_same = np.testing.assert_array_equal
        if identical:
            assert_same = functools.partial(np.testing.assert_allclose, rtol=1e-13, atol=1e-15)
        rng = np.random.default_rng(batch * 13 + n_points)
        params = random_biases(init_params("full", seed=4), rng)
        pts, tab = small_inputs(rng, "full", batch=batch, n_points=n_points)
        if identical:
            pts = np.repeat(pts[:, :1], n_points, axis=1)
        d_out = rng.normal(size=(batch, output_dim("full")))
        _, cache = forward(params, pts, tab, "full", want_cache=True)
        full = [pts.reshape(-1, 3)]
        for i in range(len(POINT_WIDTHS) - 2):
            full.append(net._affine_relu(full[-1], params[f"point{i}.w"], params[f"point{i}.b"]))
        rows = [a[cache["critical_index"]] for a in full]
        del full

        recomputed, affine_relu = [], net._affine_relu

        def recording(*args):
            recomputed.append(affine_relu(*args))
            return recomputed[-1]

        monkeypatch.setattr(net, "_affine_relu", recording)
        grads = backward(params, cache, d_out)
        np.testing.assert_array_equal(cache["critical_points"], rows[0])
        # Layer 3 recomputes rows 1-3 and keeps rows 2 for layer 2; layer 1
        # recomputes rows 1.
        assert len(recomputed) == 4
        for depth, got in zip([1, 2, 3, 1], recomputed):
            assert_same(got, rows[depth], err_msg=f"layer {depth}")

        # A backward on the gathered rows, from the same pooled gradient. The
        # last layer's step takes it, as backward() does, as a channel-major
        # CSR matrix with one entry per (cloud, channel): the dense scatter,
        # transposed, with its zeros left out.
        pool_dim, last = POINT_WIDTHS[-1], len(POINT_WIDTHS) - 2
        dg = (d_out @ params["head1.w"].T) * (cache["head_hidden"] > 0)
        d_pooled = (dg @ params["head0.w"].T)[:, :pool_dim] * (cache["fused"][:, :pool_dim] > 0)
        slot = cache["critical_slot"]
        d_pool = sparse.csr_array(
            (d_pooled.T.ravel(), slot.T.ravel(), np.arange(0, d_pooled.size + 1, batch)),
            shape=(pool_dim, len(rows[0])),
        )
        scatter = np.zeros((len(rows[0]), pool_dim))
        scatter[slot, np.arange(pool_dim)] = d_pooled
        np.testing.assert_array_equal(d_pool.toarray().T, scatter)
        assert_same(grads[f"point{last}.w"], (d_pool @ rows[last]).T)
        assert_same(grads[f"point{last}.b"], d_pooled.sum(axis=0))
        d_h = (d_pool.T @ params[f"point{last}.w"].T) * (rows[last] > 0)
        for i in reversed(range(last)):
            assert_same(grads[f"point{i}.w"], rows[i].T @ d_h)
            assert_same(grads[f"point{i}.b"], d_h.sum(axis=0))
            d_h = (d_h @ params[f"point{i}.w"].T) * (rows[i] > 0)


def first_argmax_reference(params, pts):
    """(B, 256) first point attaining the max of z = h3 @ W, from a dense z."""
    h = pts.reshape(-1, 3)
    for i in range(len(POINT_WIDTHS) - 2):
        h = np.maximum(h @ params[f"point{i}.w"] + params[f"point{i}.b"], 0.0)
    z = h @ params[f"point{len(POINT_WIDTHS) - 2}.w"]
    return z.reshape(pts.shape[0], pts.shape[1], -1).argmax(axis=1)


class TestBlockSearch:
    """The critical point of each (cloud, channel) is found block by block;
    it must stay the first point that attains the max, wherever it lies."""

    @staticmethod
    def critical_points(params, pts):
        _, cache = forward(params, pts, None, "vanilla", want_cache=True)
        flat = cache["critical_index"][cache["critical_slot"]]
        return flat - pts.shape[1] * np.arange(len(pts))[:, None]

    @pytest.mark.parametrize("n_points", [1, 17, 64, 2053])
    def test_first_argmax(self, n_points):
        rng = np.random.default_rng(n_points)
        params = random_biases(init_params("vanilla", seed=3), rng)
        far = 8 * rng.normal(size=(3, 3))
        clouds = {
            "random": rng.normal(size=(3, n_points, 3)),
            # Few distinct points: nearly every channel ties across blocks.
            "ties": rng.normal(size=(3, 4, 3))[:, rng.integers(0, 4, size=n_points)],
        }
        if n_points > 16:
            # A far point repeated at 15 and 16 ties across a block boundary.
            clouds["boundary"] = clouds["random"].copy()
            clouds["boundary"][:, 15] = clouds["boundary"][:, 16] = far
        if n_points % 16 and n_points > 16:
            # A far point in the partial tail block only.
            clouds["tail"] = clouds["random"].copy()
            clouds["tail"][:, -1] = far
        for name, pts in clouds.items():
            ref = first_argmax_reference(params, pts)
            np.testing.assert_array_equal(self.critical_points(params, pts), ref, err_msg=name)
        if "boundary" in clouds:
            assert (first_argmax_reference(params, clouds["boundary"]) == 15).any()
        if "tail" in clouds:
            assert (first_argmax_reference(params, clouds["tail"]) == n_points - 1).any()


class TestInvariances:
    def test_exact_point_permutation_invariance(self):
        rng = np.random.default_rng(1)
        for variant in VARIANTS:
            params = init_params(variant, seed=1)
            pts, tab = small_inputs(rng, variant, batch=2, n_points=32)
            out1 = forward(params, pts, tab, variant)
            perm = rng.permutation(32)
            out2 = forward(params, pts[:, perm], tab, variant)
            np.testing.assert_array_equal(out1, out2)

    def test_zero_params_give_zero_output(self):
        params = init_params("vanilla", seed=0)
        for k in params:
            params[k] = np.zeros_like(params[k])
        out = forward(params, np.random.default_rng(2).normal(size=(2, 8, 3)), None, "vanilla")
        np.testing.assert_array_equal(out, np.zeros((2, 10)))


class TestGradients:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_finite_difference(self, variant):
        rng = np.random.default_rng(7)
        params = init_params(variant, seed=7)
        pts, tab = small_inputs(rng, variant, batch=2, n_points=8)
        y = rng.normal(size=(2, output_dim(variant)))

        preds, cache = forward(params, pts, tab, variant, want_cache=True)
        _, d_a, d_b = paired_loss(preds[:1], preds[1:], y[:1], y[1:], lam=1.0)
        grads = backward(params, cache, np.concatenate([d_a, d_b], axis=0))

        def loss_value():
            p = forward(params, pts, tab, variant)
            return paired_loss(p[:1], p[1:], y[:1], y[1:], lam=1.0)[0]

        h = 1e-5
        max_rel = 0.0
        for name in sorted(params):
            flat = params[name].reshape(-1)
            for j in rng.choice(flat.size, size=min(8, flat.size), replace=False):
                orig = flat[j]
                flat[j] = orig + h
                up = loss_value()
                flat[j] = orig - h
                down = loss_value()
                flat[j] = orig
                fd = (up - down) / (2 * h)
                an = grads[name].reshape(-1)[j]
                denom = max(abs(fd), abs(an), 1e-8)
                max_rel = max(max_rel, abs(fd - an) / denom)
        assert max_rel < 1e-4


class TestPairedLoss:
    def test_hand_value(self):
        # 1-dim, 1 pair: pred_a=1, y_a=0, pred_b=0, y_b=0, lam=1
        # -> 0.5*(1 + 0) + 1*(1 - 0)^2 = 1.5
        loss, d_a, d_b = paired_loss([[1.0]], [[0.0]], [[0.0]], [[0.0]], lam=1.0)
        assert loss == pytest.approx(1.5, abs=1e-15)

    def test_zero_at_perfect_prediction(self):
        rng = np.random.default_rng(3)
        y_a = rng.normal(size=(4, 5))
        y_b = rng.normal(size=(4, 5))
        loss, d_a, d_b = paired_loss(y_a, y_b, y_a, y_b, lam=2.0)
        assert loss == 0.0
        np.testing.assert_array_equal(d_a, np.zeros_like(y_a))
        np.testing.assert_array_equal(d_b, np.zeros_like(y_b))

    def test_lambda_zero_reduces_to_plain_average_mse(self):
        rng = np.random.default_rng(4)
        pa, pb = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        ya, yb = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        loss, d_a, d_b = paired_loss(pa, pb, ya, yb, lam=0.0)
        expect = 0.5 * (np.mean((pa - ya) ** 2) + np.mean((pb - yb) ** 2))
        assert loss == pytest.approx(expect, rel=1e-15)
        np.testing.assert_allclose(d_a, (pa - ya) / pa.size, rtol=1e-15)
        np.testing.assert_allclose(d_b, (pb - yb) / pb.size, rtol=1e-15)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            paired_loss([[1.0]], [[1.0]], [[1.0]], [[1.0]], lam=-0.1)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        pa, pb = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        ya, yb = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        loss, d_a, d_b = paired_loss(pa, pb, ya, yb, lam=1.7)
        h = 1e-7
        for arr, grad in ((pa, d_a), (pb, d_b)):
            flat = arr.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                up = paired_loss(pa, pb, ya, yb, lam=1.7)[0]
                flat[j] = orig - h
                down = paired_loss(pa, pb, ya, yb, lam=1.7)[0]
                flat[j] = orig
                assert (up - down) / (2 * h) == pytest.approx(
                    grad.reshape(-1)[j], rel=1e-5, abs=1e-8
                )

"""Shape oracle tests: analytic fixtures, invariances, brute-force equality."""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bundleshape import synth
from bundleshape.io import Bundle, read_native
from bundleshape.shapes import (
    DegenerateSpan,
    GridTooLarge,
    align_orientations,
    compute_measures,
    _arc_lengths,
    _segments,
    count_surface_voxels,
    voxelize,
)

from naive_oracle import naive_measures, naive_voxel_indices


def straight_line(length=10.0, n=11):
    pts = np.zeros((n, 3))
    pts[:, 0] = np.linspace(0.0, length, n)
    return Bundle.from_streamlines((pts,))


def semicircle(radius=50.0, n=2001):
    phi = np.linspace(0.0, np.pi, n)
    pts = np.stack([radius * np.cos(phi), radius * np.sin(phi), np.zeros(n)], axis=1)
    return Bundle.from_streamlines((pts,))


def random_bundle(rng, max_extent=50.0):
    """A random small bundle: a few smooth-ish random polylines."""
    n_s = int(rng.integers(2, 8))
    streamlines = []
    for _ in range(n_s):
        n_p = int(rng.integers(3, 25))
        start = rng.uniform(0, max_extent * 0.5, size=3)
        steps = rng.normal(0.0, max_extent / 40.0, size=(n_p - 1, 3))
        pts = np.concatenate([start[None], start[None] + np.cumsum(steps, axis=0)])
        streamlines.append(pts)
    return Bundle.from_streamlines(tuple(streamlines))


class TestAnalytic:
    def test_straight_line_curl_exactly_one(self):
        m = compute_measures(straight_line(), voxel_size=1.0)
        assert abs(m.curl - 1.0) < 1e-9
        assert abs(m.length - 10.0) < 1e-9
        assert abs(m.span - 10.0) < 1e-9

    def test_semicircle(self):
        m = compute_measures(semicircle(), voxel_size=1.0)
        assert abs(m.length / (np.pi * 50.0) - 1.0) < 0.005
        assert abs(m.span / 100.0 - 1.0) < 0.005
        assert abs(m.curl / (np.pi / 2.0) - 1.0) < 0.005

    def test_curl_at_least_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            b = random_bundle(rng)
            try:
                m = compute_measures(b, voxel_size=1.0)
            except DegenerateSpan:
                continue
            # For a single streamline arc length >= endpoint distance; for a
            # bundle the averaged span can only shrink relative to lengths.
            if b.n_streamlines == 1:
                assert m.curl >= 1.0 - 1e-9


class TestInvariances:
    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            b = random_bundle(rng)
            shift = rng.uniform(-200, 200, size=3)
            m1 = compute_measures(b, voxel_size=1.0).as_array()
            m2 = compute_measures(Bundle(b.points + shift, b.offsets), voxel_size=1.0).as_array()
            np.testing.assert_allclose(m1, m2, rtol=1e-6, atol=1e-6)

    def test_streamline_order_permutation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            b = random_bundle(rng)
            lengths = [float(np.linalg.norm(np.diff(s, axis=0), axis=1).sum()) for s in b.streamlines]
            if lengths.count(max(lengths)) != 1:
                continue  # ambiguous reference; tie-break is index-dependent
            perm = rng.permutation(b.n_streamlines)
            b2 = Bundle.from_streamlines(tuple(b.streamlines[i] for i in perm))
            m1 = compute_measures(b, voxel_size=1.0).as_array()
            m2 = compute_measures(b2, voxel_size=1.0).as_array()
            np.testing.assert_allclose(m1, m2, rtol=1e-9, atol=1e-12)

    def test_voxel_free_measures_unchanged_under_voxel_halving(self):
        rng = np.random.default_rng(2)
        b = random_bundle(rng)
        m1 = compute_measures(b, voxel_size=1.0)
        m2 = compute_measures(b, voxel_size=0.5)
        for name in ("length", "span", "curl", "total_radius_end_regions"):
            assert getattr(m1, name) == pytest.approx(getattr(m2, name), rel=1e-12)

    def test_align_orientations_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            b = random_bundle(rng)
            # Randomly flip some streamlines first.
            flipped = tuple(
                s[::-1] if rng.random() < 0.5 else s for s in b.streamlines
            )
            a1 = align_orientations(Bundle.from_streamlines(flipped))
            a2 = align_orientations(a1)
            for s1, s2 in zip(a1.streamlines, a2.streamlines):
                np.testing.assert_array_equal(s1, s2)

    def test_align_matches_explicit_alignment_path(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            b = random_bundle(rng)
            m1 = compute_measures(b, voxel_size=1.0).as_array()
            m2 = compute_measures(align_orientations(b), voxel_size=1.0).as_array()
            np.testing.assert_array_equal(m1, m2)


class TestVoxelize:
    def test_single_voxel_segment(self):
        b = Bundle.from_streamlines((np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]]),))
        grid = voxelize(b, 1.0)
        assert len(grid) == 1

    def test_axis_aligned_run(self):
        b = Bundle.from_streamlines((np.array([[0.5, 0.5, 0.5], [9.5, 0.5, 0.5]]),))
        grid = voxelize(b, 1.0)
        assert len(grid) == 10
        assert count_surface_voxels(grid.indices) == 10

    def test_cube_surface_count(self):
        # A solid 4x4x4 block: 64 voxels, 56 on the surface.
        idx = np.array([[i, j, k] for i in range(4) for j in range(4) for k in range(4)])
        assert count_surface_voxels(idx) == 56
        # A repeated index is one voxel.
        assert count_surface_voxels([[0, 0, 0], [0, 0, 0]]) == 1

    @pytest.mark.parametrize("shape", [(4, 2), (5,), (2, 3, 1)])
    def test_surface_count_refuses_other_shapes(self, shape):
        with pytest.raises(ValueError, match=r"\(n, 3\), got " + re.escape(str(shape))):
            count_surface_voxels(np.zeros(shape, dtype=np.int64))

    def test_surface_count_leaves_its_input_unchanged(self):
        # An int64 (n, 3) array is used as is, not copied, so a write into
        # its columns would show here.
        idx = np.random.default_rng(3).integers(-5, 5, size=(200, 3))
        before = idx.tobytes()
        count_surface_voxels(idx)
        assert idx.tobytes() == before

    def test_axis_longer_than_2_pow_21_cells(self):
        n = (1 << 21) + 5
        grid = voxelize(Bundle.from_streamlines((np.array([[0.25, 0.5, 0.5], [n - 0.75, 0.5, 0.5]]),)), 1.0)
        extent = grid.indices.max(axis=0) - grid.indices.min(axis=0) + 1
        np.testing.assert_array_equal(extent, [n, 1, 1])
        assert len(grid) == n

    def test_bad_voxel_size(self):
        for v in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="voxel_size"):
                voxelize(straight_line(), v)
            with pytest.raises(ValueError, match="voxel_size"):
                compute_measures(straight_line(), v)

    def test_occupied_property(self):
        b = straight_line()
        grid = voxelize(b, 1.0)
        np.testing.assert_array_equal(grid.indices, np.unique(naive_voxel_indices(b, 1.0), axis=0))


class TestRaggedReductions:
    def test_arc_lengths_equal_slice_sums(self):
        """Grouped row sums == one slice sum per streamline, bit for bit."""
        rng = np.random.default_rng(2)
        for _ in range(20):
            counts = rng.choice([2, 3, 9, 17, 130, 701], size=int(rng.integers(1, 40)))
            b = Bundle.from_streamlines([rng.normal(size=(k, 3)) * 10.0 for k in counts])
            off = b.offsets
            seg_len = _segments(b.points, off)[2]
            slices = [seg_len[off[j] : off[j + 1] - 1].sum() for j in range(b.n_streamlines)]
            np.testing.assert_array_equal(_arc_lengths(seg_len, off), slices)

    def test_overflowing_volume_names_voxel_size(self):
        # (1e120 mm)^3 and 2 * (5e102 mm)^3 exceed the largest float.
        for v in (1e120, 5e102):
            with pytest.raises(FloatingPointError, match="voxel_size"):
                compute_measures(straight_line(length=1e104, n=11), v)


class TestBounds:
    """Too many samples or grid cells raise GridTooLarge before allocating them."""

    @staticmethod
    def _peak_bytes(fn, *args):
        tracemalloc.start()
        try:
            with pytest.raises(GridTooLarge):
                fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_tiny_voxel_size(self):
        b = random_bundle(np.random.default_rng(6))
        assert self._peak_bytes(compute_measures, b, 1e-7) < 1 << 20

    def test_far_apart_streamlines(self):
        # Few samples, but a bounding box of ~1e8 cells.
        near = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        b = Bundle.from_streamlines((near, near + [0.0, 5000.0, 5000.0]))
        assert self._peak_bytes(compute_measures, b, 1.0) < 1 << 20

    def test_surface_count_of_spread_indices(self):
        idx = np.array([[0, 0, 0], [10**6, 10**6, 10**6]])
        assert self._peak_bytes(count_surface_voxels, idx) < 1 << 20


class TestDegenerate:
    def test_closed_loop_raises_degenerate_span(self):
        phi = np.linspace(0.0, 2 * np.pi, 100)
        pts = np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=1)
        with pytest.raises(DegenerateSpan):
            compute_measures(Bundle.from_streamlines((pts,)), voxel_size=1.0)


class TestBruteForce:
    def test_bit_exact_on_random_bundles(self):
        """Vectorized grid slices == per-voxel Python loops, bit for bit.

        Dividing by 0.3, 0.7, 1.3 or 2.5 rounds, so a rewrite that reorders
        (p - origin) / voxel_size shows at those sizes on lattice bundles.
        """
        rng = np.random.default_rng(11)
        for v in (0.3, 0.5, 0.7, 1.0, 1.3, 2.0, 2.5):
            checked = 0
            while checked < 4:
                b = random_bundle(rng, max_extent=40.0)
                if checked % 2:
                    # Vertices on a 0.1 mm lattice put many samples on voxel
                    # faces, where the rounding of each step decides the voxel.
                    b = Bundle.from_streamlines(tuple(np.round(s * 10.0) / 10.0 for s in b.streamlines))
                grid = voxelize(b, v)
                extent = grid.indices.max(axis=0) - grid.indices.min(axis=0) + 1
                if extent.max() > 64:
                    continue
                try:
                    fast = compute_measures(b, v).as_array()
                except DegenerateSpan:
                    continue
                slow = naive_measures(b, v).as_array()
                np.testing.assert_array_equal(fast, slow)
                np.testing.assert_array_equal(grid.indices, np.unique(naive_voxel_indices(b, v), axis=0))
                checked += 1

    def test_bit_exact_on_a_lattice_step_count(self):
        """The segment (0.2, -0.3, 0.6) is 0.7 mm long to within rounding:
        one order of its sum of squares gives 0.7000000000000001, another
        0.7, so it takes 3 or 2 steps of half a 0.7 mm voxel, and its bundle
        one voxel more or less. The oracle and the naive one must agree on
        the order."""
        b = Bundle.from_streamlines(
            (
                np.array([[0.7, 1.9, 0.2], [0.9, 1.6, 0.8]]),
                np.array([[-0.9, -0.9, -0.9], [2.1, -0.9, -0.9]]),
            )
        )
        np.testing.assert_array_equal(compute_measures(b, 0.7).as_array(), naive_measures(b, 0.7).as_array())
        np.testing.assert_array_equal(voxelize(b, 0.7).indices, np.unique(naive_voxel_indices(b, 0.7), axis=0))

    def test_bit_exact_on_synthetic_families(self, tmp_path):
        """The two smallest bundles of each generator family of a seed-7
        subject, the kind of data the benchmark's oracle workload runs."""
        cfg = synth.DatasetConfig(out_dir=str(tmp_path), n_bundles=73, master_seed=7)
        rows = synth.generate_dataset(cfg)
        bundles = [read_native(Path(r.path).read_bytes()) for r in rows]
        for family in synth.FAMILIES:
            idx = [i for i, r in enumerate(rows) if r.family == family]
            for i in sorted(idx, key=lambda i: bundles[i].n_points)[:2]:
                for v in (0.7, 1.0):
                    fast = compute_measures(bundles[i], v).as_array()
                    np.testing.assert_array_equal(fast, naive_measures(bundles[i], v).as_array())

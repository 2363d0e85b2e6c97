"""Bundle data model and file format tests."""

import struct
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleshape.io import (
    BadMagic,
    BadVersion,
    Bundle,
    BundleError,
    BundleIOError,
    IndexOutOfRange,
    MalformedHeader,
    ShortStreamline,
    TruncatedFile,
    parse_polydata,
    read_csv,
    read_native,
    replace_on_success,
    write_csv,
    write_native,
    write_polydata,
)


def simple_bundle():
    return Bundle.from_streamlines(
        (
            np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.5, 0.0]]),
            np.array([[0.0, 1.0, 0.0], [2.0, 1.0, 0.25]]),
        )
    )


POLYDATA_HEADER = "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA\n"


def reference_accepts(pts, offsets):
    """Positive arc length per streamline as the sum of squared segment norms."""
    seg = np.diff(pts, axis=0)
    sq = np.einsum("ij,ij->i", seg, seg)
    sq[offsets[1:-1] - 1] = 0.0
    return bool((np.add.reduceat(sq, offsets[:-1]) > 0.0).all())


def assert_arc_length_check_as_reference(pts, offsets):
    offsets = np.asarray(offsets)
    if reference_accepts(pts, offsets):
        Bundle(pts, offsets)
    else:
        with pytest.raises(BundleError, match="zero arc length"):
            Bundle(pts, offsets)


class TestBundle:
    def test_basic_properties(self):
        b = simple_bundle()
        assert b.n_streamlines == 2
        assert b.n_points == 5
        assert b.all_points().shape == (5, 3)

    def test_streamlines_are_read_only(self):
        b = simple_bundle()
        with pytest.raises(ValueError):
            b.streamlines[0][0, 0] = 99.0

    def test_ragged_layout(self):
        b = simple_bundle()
        np.testing.assert_array_equal(b.offsets, [0, 3, 5])
        assert b.offsets.dtype == np.int64 and b.points.dtype == np.float64
        np.testing.assert_array_equal(b.points, np.concatenate(b.streamlines))
        assert b.all_points() is b.points
        for s in b.streamlines:
            assert np.shares_memory(s, b.points)
        for arr in (b.points, b.offsets):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_constructor_does_not_freeze_the_callers_arrays(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        b = Bundle(pts, np.array([0, 2]))
        assert pts.flags.writeable and not b.points.flags.writeable

    @pytest.mark.parametrize(
        "offsets",
        [[0, 3], [1, 3, 5], [0, 3, 4, 5], [0, 3, 6], [0, 5, 3, 5], [0.0, 3.0, 5.0], [[0, 3, 5]]],
        ids=["short_end", "bad_start", "one_point", "past_end", "decreasing", "float", "2d"],
    )
    def test_rejects_bad_offsets(self, offsets):
        with pytest.raises(BundleError):
            Bundle(simple_bundle().points, np.array(offsets))

    def test_rejects_empty_bundle(self):
        with pytest.raises(BundleError):
            Bundle.from_streamlines(())

    def test_rejects_single_point_streamline(self):
        with pytest.raises(BundleError):
            Bundle.from_streamlines((np.array([[0.0, 0.0, 0.0]]),))

    def test_rejects_bad_shape(self):
        with pytest.raises(BundleError):
            Bundle.from_streamlines((np.zeros((3, 2)),))

    def test_rejects_non_finite(self):
        with pytest.raises(BundleError):
            Bundle.from_streamlines((np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]),))
        with pytest.raises(BundleError):
            Bundle.from_streamlines((np.array([[0.0, 0.0, 0.0], [np.inf, 0.0, 0.0]]),))

    def test_rejects_zero_arc_length(self):
        with pytest.raises(BundleError):
            Bundle.from_streamlines((np.zeros((4, 3)),))

    def test_zero_length_detected_in_any_streamline(self):
        good = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        degenerate = np.ones((3, 3))
        with pytest.raises(BundleError):
            Bundle.from_streamlines((good, degenerate))

    @pytest.mark.parametrize(
        "step, valid",
        [(1e-150, True), (1.6e-162, True), (1.5e-162, False), (1e-170, False), (0.0, False)],
    )
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_arc_length_check_matches_squared_norms(self, step, valid, axis):
        # One streamline moves by ``step`` along one axis and the next moves by
        # 1: the bundle is valid exactly when step ** 2 does not underflow.
        still = np.zeros((3, 3))
        still[2, axis] = step
        moving = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        for pts, offsets in (
            (np.concatenate([still, moving]), [0, 3, 5]),
            (np.concatenate([moving, still]), [0, 2, 5]),
        ):
            assert reference_accepts(pts, np.array(offsets)) == valid
            assert_arc_length_check_as_reference(pts, offsets)

    def test_movement_on_the_joining_row_does_not_count(self):
        # Each streamline is a point repeated; only the rows that join two
        # streamlines move, and those are not segments.
        pts = np.repeat(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [4.0, 4.0, 4.0]]), 2, axis=0)
        assert not reference_accepts(pts, np.array([0, 2, 4, 6]))
        assert_arc_length_check_as_reference(pts, [0, 2, 4, 6])

    def test_arc_length_check_sweep_over_tiny_steps(self):
        rng = np.random.default_rng(9)
        accepted = 0
        for _ in range(300):
            lengths = rng.integers(2, 5, size=rng.integers(1, 5))
            offsets = np.concatenate([[0], np.cumsum(lengths)])
            sizes = [0.0, 1e-200, 1e-163, 1.5e-162, 1e-161, 1e-150, 1.0]
            steps = rng.choice(sizes, size=(offsets[-1], 3))
            steps *= rng.random((offsets[-1], 3)) < 0.4
            pts = np.cumsum(steps * rng.choice([-1.0, 1.0], size=steps.shape), axis=0)
            accepted += reference_accepts(pts, offsets)
            assert_arc_length_check_as_reference(pts, offsets)
        assert 60 < accepted < 240  # both outcomes are well represented


class TestPolydata:
    def test_round_trip(self):
        b = simple_bundle()
        b2 = parse_polydata(write_polydata(b))
        assert b2.n_streamlines == b.n_streamlines
        for s, s2 in zip(b.streamlines, b2.streamlines):
            np.testing.assert_allclose(s, s2, rtol=1e-8, atol=1e-8)

    def test_parses_minimal_file(self):
        text = (
            "# vtk DataFile Version 3.0\n"
            "title\n"
            "ASCII\n"
            "DATASET POLYDATA\n"
            "POINTS 3 float\n"
            "0 0 0 1 0 0 2 0 0\n"
            "LINES 1 4\n"
            "3 0 1 2\n"
        )
        for data in (text, text.replace("\n", "\r\n")):
            b = parse_polydata(data)
            assert b.n_streamlines == 1
            np.testing.assert_allclose(b.streamlines[0][2], [2.0, 0.0, 0.0])

    def test_accepts_double_points(self):
        text = (
            "# vtk DataFile Version 3.0\ntitle\nASCII\nDATASET POLYDATA\n"
            "POINTS 2 double\n0 0 0 1 1 1\nLINES 1 3\n2 0 1\n"
        )
        assert parse_polydata(text).n_points == 2

    def test_skips_attribute_blocks_with_warning(self):
        text = (
            "# vtk DataFile Version 3.0\ntitle\nASCII\nDATASET POLYDATA\n"
            "POINTS 2 float\n0 0 0 1 1 1\nLINES 1 3\n2 0 1\n"
            "CELL_DATA 1\nSCALARS x float\n"
        )
        with pytest.warns(UserWarning):
            b = parse_polydata(text)
        assert b.n_streamlines == 1

    def test_bad_header(self):
        body = "POINTS 2 float\n0 0 0 1 1 1\nLINES 1 3\n2 0 1\n"
        for header in (
            "not a header\nt\nASCII\nDATASET POLYDATA\n",
            "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA 7 7 junk\n",
            "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA junk\n",
        ):
            with pytest.raises(MalformedHeader):
                parse_polydata(header + body)

    def test_binary_encoding_rejected(self):
        text = "# vtk DataFile Version 3.0\nt\nBINARY\nDATASET POLYDATA\n"
        with pytest.raises(MalformedHeader):
            parse_polydata(text)

    def test_non_ascii_bytes_rejected(self):
        with pytest.raises(MalformedHeader):
            parse_polydata(b"\xff\xfe\x00\x01garbage")

    def test_one_ascii_rule_for_str_and_bytes(self):
        # U+0661 is a digit to Python's float(), but not ASCII.
        text = POLYDATA_HEADER + "POINTS 2 float\n0 0 0 \u0661 1 1\nLINES 1 3\n2 0 1\n"
        for data in (text, text.encode("utf-8")):
            with pytest.raises(MalformedHeader, match="not ASCII"):
                parse_polydata(data)

    def test_truncated_points(self):
        text = (
            "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA\n"
            "POINTS 5 float\n0 0 0 1 1 1\n"
        )
        with pytest.raises(TruncatedFile):
            parse_polydata(text)

    def test_truncated_lines(self):
        text = (
            "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA\n"
            "POINTS 2 float\n0 0 0 1 1 1\nLINES 1 5\n4 0 1\n"
        )
        with pytest.raises(TruncatedFile):
            parse_polydata(text)

    def test_lines_size_mismatch(self):
        text = (
            "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA\n"
            "POINTS 2 float\n0 0 0 1 1 1\nLINES 1 2\n2 0 1\n"
        )
        with pytest.raises(MalformedHeader):
            parse_polydata(text)

    def test_index_out_of_range(self):
        text = (
            "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA\n"
            "POINTS 2 float\n0 0 0 1 1 1\nLINES 1 3\n2 0 7\n"
        )
        with pytest.raises(IndexOutOfRange):
            parse_polydata(text)

    def test_short_polyline(self):
        text = (
            "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA\n"
            "POINTS 2 float\n0 0 0 1 1 1\nLINES 1 2\n1 0\n"
        )
        with pytest.raises(ShortStreamline):
            parse_polydata(text)

    def test_missing_blocks(self):
        header = "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA\n"
        with pytest.raises(TruncatedFile):
            parse_polydata(header)
        with pytest.raises(TruncatedFile):
            parse_polydata(header + "POINTS 2 float\n0 0 0 1 1 1\n")

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=400))
    def test_fuzz_bytes_never_crash(self, data):
        """Arbitrary bytes either parse to a Bundle or raise a typed error."""
        try:
            b = parse_polydata(data)
        except (BundleIOError, BundleError):
            return
        assert isinstance(b, Bundle)

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=400))
    def test_fuzz_text_never_crash(self, text):
        try:
            b = parse_polydata(text)
        except (BundleIOError, BundleError):
            return
        assert isinstance(b, Bundle)

    def test_random_round_trip_reads_each_printed_coordinate(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            lengths = rng.integers(2, 9, size=rng.integers(1, 6))
            n = int(lengths.sum())
            pts = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-8, 8, size=(n, 3))
            pts[rng.random((n, 3)) < 0.1] = -0.0
            pts[:, 0] += np.arange(n)  # positive arc length
            b = parse_polydata(write_polydata(Bundle(pts, np.concatenate([[0], np.cumsum(lengths)]))))
            expected = [[float("%.9g" % x) for x in row] for row in pts.tolist()]
            assert b.points.tobytes() == np.array(expected).tobytes()
            np.testing.assert_array_equal(b.offsets, np.concatenate([[0], np.cumsum(lengths)]))

    def test_parse_memory_is_a_small_multiple_of_the_file(self):
        streamlines = np.random.default_rng(0).normal(0.0, 40.0, size=(1000, 100, 3))
        blob = write_polydata(Bundle.from_streamlines(streamlines))
        tracemalloc.start()
        try:
            parse_polydata(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(blob)

    @pytest.mark.parametrize("title", ["a\nb", "a\rb", "caf\u00e9"])
    def test_refuses_a_title_it_cannot_read_back(self, title):
        with pytest.raises(ValueError, match="title must be one line of ASCII"):
            write_polydata(simple_bundle(), title=title)

    def test_written_bytes_are_pinned(self):
        assert write_polydata(simple_bundle()) == (
            b"# vtk DataFile Version 3.0\nbundleshape streamlines\nASCII\nDATASET POLYDATA\n"
            b"POINTS 5 float\n0 0 0\n1 0 0\n2 0.5 0\n0 1 0\n2 1 0.25\n"
            b"LINES 2 7\n3 0 1 2\n2 3 4\n"
        )

    @pytest.mark.parametrize(
        "body, error, match",
        [
            ("POINTS -1 float\n", MalformedHeader, "negative POINTS count"),
            ("POINTS -2 float\n0 0 0\n", MalformedHeader, "negative POINTS count"),
            ("POINTS 2 float\n0 0 0 1 1 1\nLINES -1 3\n2 0 1\n", MalformedHeader, "negative LINES count"),
            ("POINTS 2 float\n0 0 0 1 1 1\nLINES 1 -3\n2 0 1\n", MalformedHeader, "negative LINES size"),
            ("POINTS 2 float\n0 0 0 1 1 1\nLINES 2 3\n-1 0 1\n", ShortStreamline, "-1 points"),
            ("POINTS 2 float\n0 0 0 1 1 1\nLINES 2 4\n-7 0 1 1\n", ShortStreamline, "-7 points"),
            ("POINTS 2 float\n0 0 0 1 1 1\nLINES 1 3\n2 0 99999999999999999999\n", MalformedHeader, "LINES entry"),
            ("POINTS 2 float\n0 0 0 1 1 1\nLINES 1 3\n2 0 -99999999999999999999\n", MalformedHeader, "LINES entry"),
            ("POINTS 2 float\n0 0 0 1 1 1\nLINES 1 3\n2 0 1 x\n", MalformedHeader, "LINES entry"),
            ("POINTS 2 float\n0 0 0 1 1 1 7\nLINES 1 3\n2 0 1\n", MalformedHeader, "POINTS block holds 7"),
            ("POINTS 2 float\n0 0 0 1 1 1 LINES 1 3\n2 0 1\n", MalformedHeader, "POINTS entry"),
            ("POINTS 2 float\n0 0 0 1 1 1\nLINES 1 3\n2 0 -\n", MalformedHeader, "LINES entry"),
            ("POINTS 2 float\n0 0 0 1 1 1\nLINES 1 1 \n", TruncatedFile, "LINES block holds 0"),
            ("1 2 3\nPOINTS 2 float\n0 0 0 1 1 1\nLINES 1 3\n2 0 1\n", MalformedHeader, "before the first block"),
        ],
        ids=[
            "points",
            "points_with_data",
            "lines_count",
            "lines_size",
            "record",
            "record_steps_back",
            "index_past_int64",
            "index_past_int64_negative",
            "junk_after_block",
            "number_after_block",
            "keyword_mid_line",
            "bare_sign",
            "blank_block",
            "numbers_before_first_block",
        ],
    )
    def test_bad_counts_past_the_header(self, body, error, match):
        start = time.perf_counter()
        with pytest.raises(error, match=match):
            parse_polydata(POLYDATA_HEADER + body)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.filterwarnings("ignore:skipping unsupported block")
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["POINTS", "LINES", "CELL_DATA"]),
                st.integers(-3, 6).map(str),
                st.one_of(st.just("float"), st.integers(-3, 12).map(str)),
                st.lists(
                    st.one_of(
                        st.sampled_from(["POINTS", "LINES", "float"]),
                        st.integers(-3, 6).map(str),
                        st.floats(-5.0, 5.0).map(str),
                    ),
                    max_size=12,
                ),
            ),
            max_size=4,
        ),
        st.sampled_from(["\n", "\r\n"]),
    )
    def test_fuzz_body_never_crash(self, blocks, newline):
        """Blocks of a keyword, two small header tokens and a few words after
        a valid header reach the counts and records, not just the header."""
        body = newline.join(" ".join([keyword, *head, *words]) for keyword, *head, words in blocks)
        try:
            b = parse_polydata(POLYDATA_HEADER + body)
        except (BundleIOError, BundleError):
            return
        assert isinstance(b, Bundle)


class TestNative:
    def test_round_trip_bit_exact(self):
        b = simple_bundle()
        blob = write_native(b)
        b2 = read_native(blob)
        assert write_native(b2) == blob
        for s, s2 in zip(b.streamlines, b2.streamlines):
            np.testing.assert_array_equal(s.astype("<f4").astype(np.float64), s2)

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            read_native(b"XXXX" + b"\x00" * 16)

    def test_bad_version(self):
        blob = bytearray(write_native(simple_bundle()))
        blob[4] = 99
        with pytest.raises(BadVersion):
            read_native(bytes(blob))

    def test_truncations(self):
        blob = write_native(simple_bundle())
        for cut in (2, 6, 10, len(blob) - 3):
            with pytest.raises(TruncatedFile):
                read_native(blob[:cut])

    def test_trailing_bytes(self):
        with pytest.raises(MalformedHeader, match="trailing"):
            read_native(write_native(simple_bundle()) + b"garbage!!")

    def test_short_streamline(self):
        blob = bytearray(write_native(simple_bundle()))
        blob[9:13] = struct.pack("<I", 1)  # 3 points declared as 1 + 2 trailing coordinates
        with pytest.raises(BundleIOError):
            read_native(bytes(blob))
        with pytest.raises(ShortStreamline):
            read_native(b"T2SB\x01" + struct.pack("<II", 1, 1) + b"\x00" * 12)

    def test_signalling_nan_is_a_bundle_error_without_a_warning(self):
        blob = bytearray(write_native(simple_bundle()))
        blob[13:17] = struct.pack("<I", 0x7F800001)  # the first x: a signalling NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BundleError):
                read_native(bytes(blob))

    @pytest.mark.parametrize("where", [5, 9], ids=["streamline_count", "point_count"])
    def test_huge_declared_count_allocates_nothing(self, where):
        blob = bytearray(write_native(simple_bundle()))
        blob[where : where + 4] = struct.pack("<I", 2**32 - 1)
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedFile):
                read_native(bytes(blob))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200))
    def test_fuzz_never_crash(self, data):
        try:
            b = read_native(data)
        except (BundleIOError, BundleError):
            return
        assert isinstance(b, Bundle)


def mixed_bundle():
    """Streamlines of 2, 3 and 5 points: every count differs."""
    rng = np.random.default_rng(3)
    return Bundle.from_streamlines([rng.normal(size=(k, 3)) for k in (3, 2, 5)])


BLOB = write_native(mixed_bundle())
# The bytes of the streamline count and of each point count.
COUNT_BYTES = [5, 6, 7, 8] + [
    9 + 4 * (j + 3 * int(o)) + i for j, o in enumerate(mixed_bundle().offsets[:-1]) for i in range(4)
]


class TestFuzz:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, len(BLOB) - 1))
    def test_truncated(self, cut):
        with pytest.raises(TruncatedFile):
            read_native(BLOB[:cut])

    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=1, max_size=64))
    def test_appended(self, tail):
        with pytest.raises(BundleIOError):
            read_native(BLOB + tail)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                # Mostly in the header and the point counts; sometimes anywhere.
                st.one_of(st.sampled_from(COUNT_BYTES), st.integers(0, len(BLOB) - 1)),
                st.integers(1, 255),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_flipped(self, flips):
        blob = bytearray(BLOB)
        for pos, mask in flips:
            blob[pos] ^= mask
        try:
            b = read_native(bytes(blob))
        except (BundleIOError, BundleError):
            return
        assert write_native(b) == bytes(blob)


class TestReplaceOnSuccess:
    @pytest.mark.parametrize("binary", [False, True])
    def test_failed_write_keeps_previous_file(self, tmp_path, binary):
        out = tmp_path / "out.bin"
        out.write_bytes(b"previous\n")
        with pytest.raises(RuntimeError):
            with replace_on_success(out, binary=binary) as fh:
                fh.write(b"partial" if binary else "partial")
                fh.flush()
                raise RuntimeError("failed mid-write")
        assert out.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_success_replaces(self, tmp_path):
        out = tmp_path / "out.bin"
        out.write_bytes(b"previous\n")
        with replace_on_success(out, binary=True) as fh:
            fh.write(b"\x00\x01new")
        assert out.read_bytes() == b"\x00\x01new"
        with replace_on_success(out) as fh:
            fh.write("a\nb\n")
        assert out.read_bytes() == b"a\nb\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


class TestCsv:
    HEADER = ["path", "a", "b"]

    def test_round_trip_bytes(self, tmp_path):
        out = tmp_path / "t.csv"
        write_csv(out, self.HEADER, [["x", 1, 2.5], ("y,z", "", "3")], comment="hash=h seed=1")
        assert out.read_bytes() == b'# hash=h seed=1\npath,a,b\r\nx,1,2.5\r\n"y,z",,3\r\n'
        assert read_csv(out, self.HEADER) == [["x", "1", "2.5"], ["y,z", "", "3"]]
        write_csv(out, self.HEADER, [])
        assert out.read_bytes() == b"path,a,b\r\n"
        assert read_csv(out, self.HEADER) == []

    def test_failed_write_keeps_previous_file(self, tmp_path):
        out = tmp_path / "t.csv"
        write_csv(out, self.HEADER, [["x", 1, 2]])
        before = out.read_bytes()

        def rows():
            yield ["y", 3, 4]
            raise FloatingPointError("bad row")

        with pytest.raises(FloatingPointError):
            write_csv(out, self.HEADER, rows())
        assert out.read_bytes() == before

    @pytest.mark.parametrize(
        "body, match",
        [
            (b"", "empty file"),
            (b"# only a comment\n", "empty file"),
            (b"path,a\nx,1\n", "header path,a is not path,a,b"),
            (b"path,b,a\nx,1,2\n", "header"),
            (b"path,a,b\nx,1,2\nx,1\n", "record 2 has 2 fields, not 3"),
            (b"path,a,b\nx,1,2,3\n", "record 1 has 4 fields"),
            (b"path,a,b\n\n", "record 1 has 0 fields"),
            (b"path,a,b\n" + b"x" * 200_000 + b",1,2\n", "field larger than field limit"),
            (b"path,a,b\nx,\xff,2\n", "can't decode"),
        ],
    )
    def test_malformed(self, tmp_path, body, match):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(body)
        with pytest.raises(MalformedHeader, match=match) as exc:
            read_csv(bad, self.HEADER)
        assert str(bad) in str(exc.value)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("csv") / "fuzz.csv"
        for body in (data, b"path,a,b\n" + data):  # the header lets records through
            path.write_bytes(body)
            try:
                records = read_csv(path, self.HEADER)
            except ValueError:
                continue
            assert all(len(rec) == 3 for rec in records)

"""Streamline bundle data model and file readers/writers.

Two on-disk formats are supported:

* a subset of legacy ASCII polydata (``DATASET POLYDATA`` with ``POINTS``
  and ``LINES`` blocks), the common interchange format for tractography;
* a compact native binary format (magic ``T2SB``) storing 32-bit
  little-endian coordinates.

Coordinates are millimeters in the right-anterior-superior (RAS) frame.
In-memory computation is float64; the native format stores float32, a
documented lossy boundary.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Bundle",
    "BundleError",
    "BundleIOError",
    "MalformedHeader",
    "IndexOutOfRange",
    "ShortStreamline",
    "TruncatedFile",
    "BadMagic",
    "BadVersion",
    "parse_polydata",
    "write_polydata",
    "read_native",
    "write_native",
    "replace_on_success",
]

NATIVE_MAGIC = b"T2SB"
NATIVE_VERSION = 1


class BundleError(ValueError):
    """A bundle violates its structural invariants."""


class BundleIOError(ValueError):
    """Base class for file parsing failures."""


class MalformedHeader(BundleIOError):
    pass


class IndexOutOfRange(BundleIOError):
    pass


class ShortStreamline(BundleIOError):
    pass


class TruncatedFile(BundleIOError):
    pass


class BadMagic(BundleIOError):
    pass


class BadVersion(BundleIOError):
    pass


def _validate_streamlines(streamlines) -> tuple[np.ndarray, ...]:
    """Check the structural invariants of every streamline in one pass."""
    validated = []
    for s in streamlines:
        pts = np.asarray(s, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise BundleError(f"streamline must be (n, 3), got {pts.shape}")
        if pts.shape[0] < 2:
            raise BundleError("streamline needs at least 2 points")
        validated.append(pts)
    cat = np.concatenate(validated, axis=0)
    if not np.isfinite(cat).all():
        raise BundleError("streamline contains non-finite coordinates")
    # Positive arc length per streamline: sum squared segment norms over
    # each streamline's rows of the concatenated diff, with the rows that
    # straddle two streamlines zeroed out.
    counts = np.array([pts.shape[0] for pts in validated])
    seg = np.diff(cat, axis=0)
    sq = np.einsum("ij,ij->i", seg, seg)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    sq[starts[1:] - 1] = 0.0
    if not (np.add.reduceat(sq, starts) > 0.0).all():
        raise BundleError("streamline has zero arc length")
    return tuple(validated)


@dataclass(frozen=True)
class Bundle:
    """An ordered collection of streamlines forming one fiber cluster.

    Each streamline is an (n_i, 3) float64 array of RAS millimeter
    coordinates with n_i >= 2 and positive arc length.
    """

    streamlines: tuple[np.ndarray, ...]
    subject_id: str = ""
    cluster_id: str = ""
    tract_label: str | None = None

    def __post_init__(self):
        if len(self.streamlines) == 0:
            raise BundleError("bundle must contain at least one streamline")
        validated = _validate_streamlines(self.streamlines)
        for arr in validated:
            arr.setflags(write=False)
        object.__setattr__(self, "streamlines", validated)

    @property
    def n_streamlines(self) -> int:
        return len(self.streamlines)

    @property
    def n_points(self) -> int:
        return sum(s.shape[0] for s in self.streamlines)

    def all_points(self) -> np.ndarray:
        """All points of all streamlines stacked into one (NoP, 3) array."""
        return np.concatenate(self.streamlines, axis=0)

    def translated(self, offset) -> "Bundle":
        off = np.asarray(offset, dtype=np.float64).reshape(3)
        return Bundle(
            streamlines=tuple(s + off for s in self.streamlines),
            subject_id=self.subject_id,
            cluster_id=self.cluster_id,
            tract_label=self.tract_label,
        )


# ---------------------------------------------------------------------------
# ASCII polydata subset


_SKIPPABLE_BLOCKS = ("POLYGONS", "VERTS", "TRIANGLE_STRIPS", "CELL_DATA", "POINT_DATA")


def parse_polydata(data: bytes | str, subject_id: str = "", cluster_id: str = "") -> Bundle:
    """Parse the supported ASCII polydata subset into a Bundle.

    Only ``POINTS`` and ``LINES`` blocks are interpreted; trailing
    attribute blocks (POLYGONS, CELL_DATA, POINT_DATA, ...) are skipped.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("ascii", errors="strict")
        except UnicodeDecodeError as exc:
            raise MalformedHeader(f"file is not ASCII: {exc}") from None
    else:
        text = data

    tokens_by_line = [ln.split() for ln in text.splitlines()]
    lines = [ln for ln in text.splitlines()]
    if len(lines) < 4:
        raise TruncatedFile("fewer than 4 header lines")
    if not lines[0].startswith("# vtk DataFile Version"):
        raise MalformedHeader(f"bad header line: {lines[0]!r}")
    # lines[1] is a free-form title
    if lines[2].strip().upper() != "ASCII":
        raise MalformedHeader(f"expected ASCII encoding, got {lines[2]!r}")
    if tokens_by_line[3][:2] != ["DATASET", "POLYDATA"]:
        raise MalformedHeader(f"expected DATASET POLYDATA, got {lines[3]!r}")

    # Flatten the remainder into a token stream; block keywords delimit it.
    flat: list[str] = []
    for toks in tokens_by_line[4:]:
        flat.extend(toks)

    pos = 0

    def next_token() -> str:
        nonlocal pos
        if pos >= len(flat):
            raise TruncatedFile("unexpected end of file")
        tok = flat[pos]
        pos += 1
        return tok

    points: np.ndarray | None = None
    polylines: list[np.ndarray] | None = None

    while pos < len(flat):
        keyword = next_token().upper()
        if keyword == "POINTS":
            n = _parse_int(next_token(), "POINTS count")
            dtype_kw = next_token().lower()
            if dtype_kw not in ("float", "double"):
                raise MalformedHeader(f"unsupported POINTS type {dtype_kw!r}")
            need = 3 * n
            if pos + need > len(flat):
                raise TruncatedFile("POINTS block truncated")
            try:
                coords = np.array(flat[pos : pos + need], dtype=np.float64)
            except ValueError as exc:
                raise MalformedHeader(f"non-numeric POINTS entry: {exc}") from None
            pos += need
            points = coords.reshape(n, 3)
        elif keyword == "LINES":
            m = _parse_int(next_token(), "LINES count")
            total = _parse_int(next_token(), "LINES size")
            if pos + total > len(flat):
                raise TruncatedFile("LINES block truncated")
            polylines = []
            consumed = 0
            for _ in range(m):
                k = _parse_int(next_token(), "polyline length")
                consumed += 1
                if k < 2:
                    raise ShortStreamline(f"polyline of length {k}")
                if pos + k > len(flat):
                    raise TruncatedFile("polyline record truncated")
                try:
                    idx = np.array(flat[pos : pos + k], dtype=np.int64)
                except ValueError as exc:
                    raise MalformedHeader(f"non-integer line index: {exc}") from None
                pos += k
                consumed += k
                polylines.append(idx)
            if consumed != total:
                raise MalformedHeader(
                    f"LINES size mismatch: declared {total}, consumed {consumed}"
                )
        elif keyword in _SKIPPABLE_BLOCKS:
            # Attribute blocks commonly follow; skip the rest of the file.
            import warnings

            warnings.warn(f"skipping unsupported block {keyword}", stacklevel=2)
            break
        else:
            raise MalformedHeader(f"unsupported keyword {keyword!r}")

    if points is None:
        raise TruncatedFile("missing POINTS block")
    if polylines is None:
        raise TruncatedFile("missing LINES block")

    n = points.shape[0]
    streamlines = []
    for idx in polylines:
        if np.any(idx < 0) or np.any(idx >= n):
            bad = int(idx[(idx < 0) | (idx >= n)][0])
            raise IndexOutOfRange(f"point index {bad} outside [0, {n})")
        streamlines.append(points[idx])
    return Bundle(tuple(streamlines), subject_id=subject_id, cluster_id=cluster_id)


def _parse_int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise MalformedHeader(f"expected integer for {what}, got {tok!r}") from None


def write_polydata(bundle: Bundle, title: str = "bundleshape streamlines") -> bytes:
    """Serialize a Bundle to the ASCII polydata subset.

    Coordinates are printed with 9 significant digits, so a round trip
    reproduces them to well under 1e-6 mm at anatomical scales.
    """
    out = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET POLYDATA",
    ]
    nop = bundle.n_points
    out.append(f"POINTS {nop} float")
    for s in bundle.streamlines:
        for p in s:
            out.append(f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g}")
    total = nop + bundle.n_streamlines
    out.append(f"LINES {bundle.n_streamlines} {total}")
    offset = 0
    for s in bundle.streamlines:
        k = s.shape[0]
        out.append(" ".join([str(k)] + [str(offset + i) for i in range(k)]))
        offset += k
    return ("\n".join(out) + "\n").encode("ascii")


# ---------------------------------------------------------------------------
# Native binary format


def write_native(bundle: Bundle) -> bytes:
    """Serialize to the native binary format (32-bit little-endian coords)."""
    parts = [NATIVE_MAGIC, struct.pack("<B", NATIVE_VERSION)]
    parts.append(struct.pack("<I", bundle.n_streamlines))
    for s in bundle.streamlines:
        parts.append(struct.pack("<I", s.shape[0]))
        parts.append(s.astype("<f4").tobytes())
    return b"".join(parts)


def read_native(data: bytes, subject_id: str = "", cluster_id: str = "") -> Bundle:
    """Read the native binary format; bit-exact at 32-bit precision."""
    if len(data) < 4:
        raise TruncatedFile("shorter than magic")
    if data[:4] != NATIVE_MAGIC:
        raise BadMagic(f"bad magic {data[:4]!r}")
    if len(data) < 9:
        raise TruncatedFile("missing version or streamline count")
    version = data[4]
    if version != NATIVE_VERSION:
        raise BadVersion(f"unsupported version {version}")
    (nos,) = struct.unpack_from("<I", data, 5)
    pos = 9
    streamlines = []
    for _ in range(nos):
        if pos + 4 > len(data):
            raise TruncatedFile("missing point count")
        (k,) = struct.unpack_from("<I", data, pos)
        pos += 4
        nbytes = 12 * k
        if pos + nbytes > len(data):
            raise TruncatedFile(f"declared {k} points but file ends early")
        pts = np.frombuffer(data, dtype="<f4", count=3 * k, offset=pos).reshape(k, 3)
        pos += nbytes
        streamlines.append(pts.astype(np.float64))
    if not streamlines:
        raise TruncatedFile("bundle with zero streamlines")
    return Bundle(tuple(streamlines), subject_id=subject_id, cluster_id=cluster_id)


@contextlib.contextmanager
def replace_on_success(path, binary: bool = False):
    """Write through a sibling temp file that replaces ``path`` only when
    the block succeeds, so a failed run leaves the previous file intact.
    Yields a text handle (newline="" for csv) or, with ``binary``, a
    bytes handle."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)

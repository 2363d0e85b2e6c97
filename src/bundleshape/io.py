"""Streamline bundle data model and file readers/writers.

Two on-disk formats are supported:

* a subset of legacy ASCII polydata (``DATASET POLYDATA`` with ``POINTS``
  and ``LINES`` blocks), the common interchange format for tractography;
* a compact native binary format (magic ``T2SB``) storing 32-bit
  little-endian coordinates.

It also holds the stamped CSV format that the pipeline stages hand to each
other (:func:`write_csv`, :func:`read_csv`).

A :class:`Bundle` is its geometry only: ``points`` (one (NoP, 3) array of
every streamline's points) plus ``offsets`` (the row where each streamline
starts, and NoP); ``Bundle.from_streamlines([s0, s1])`` builds one from a
list of (n_i, 3) arrays. Both readers split their count-prefixed streamline
records in one walk (:func:`_split_records`) that checks every count, and a
negative count declared in a polydata file is refused as MalformedHeader.

Coordinates are millimeters in the right-anterior-superior (RAS) frame.
In-memory computation is float64; the native format stores float32, a
documented lossy boundary.
"""

from __future__ import annotations

import contextlib
import csv
import os
import struct
import warnings
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
    "write_csv",
    "read_csv",
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


@dataclass(frozen=True)
class Bundle:
    """An ordered collection of streamlines forming one fiber cluster.

    Streamline j is ``points[offsets[j]:offsets[j + 1]]``: ``points`` is a
    read-only (NoP, 3) float64 array of RAS millimeter coordinates and
    ``offsets`` the read-only (NoS + 1,) int64 row boundaries from 0 to NoP.
    Every streamline has at least 2 points and positive arc length.
    """

    points: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).view()
        off = np.asarray(self.offsets).view()
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise BundleError(f"points must be (n, 3), got {pts.shape}")
        if off.ndim != 1 or off.dtype.kind not in "iu" or off.shape[0] < 2:
            raise BundleError(f"bundle needs integer offsets of at least one streamline, got {off!r}")
        off = off.astype(np.int64, copy=False)
        if off[0] != 0 or off[-1] != pts.shape[0] or (np.diff(off) < 2).any():
            raise BundleError(f"offsets must rise from 0 to {pts.shape[0]} by 2 or more per streamline")
        if not np.isfinite(pts).all():
            raise BundleError("streamline contains non-finite coordinates")
        # Positive arc length per streamline. A sum of squares is > 0 exactly
        # when one of its terms is, so look for a coordinate step with a
        # positive square (a tiny step underflows to 0, as in the norm),
        # leaving out the steps that join two streamlines.
        flat = pts.reshape(-1)
        moved = flat[3:] - flat[:-3]
        with np.errstate(over="ignore"):  # an infinite square is still > 0
            moved *= moved
        moved = moved > 0.0
        moved.reshape(-1, 3)[off[1:-1] - 1] = False
        if not np.logical_or.reduceat(moved, 3 * off[:-1]).all():
            raise BundleError("streamline has zero arc length")
        for name, arr in (("points", pts), ("offsets", off)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_streamlines(cls, streamlines) -> "Bundle":
        """Bundle of a sequence of (n_i, 3) arrays."""
        arrays = [np.asarray(s, dtype=np.float64) for s in streamlines]
        if any(a.ndim != 2 or a.shape[1] != 3 for a in arrays):
            raise BundleError("every streamline must be an (n, 3) array")
        offsets = np.cumsum([0] + [a.shape[0] for a in arrays], dtype=np.int64)
        return cls(np.concatenate([np.empty((0, 3)), *arrays]), offsets)

    @property
    def streamlines(self) -> tuple[np.ndarray, ...]:
        """Read-only (n_i, 3) views of ``points``, one per streamline."""
        return tuple(np.split(self.points, self.offsets[1:-1]))

    @property
    def n_streamlines(self) -> int:
        return self.offsets.shape[0] - 1

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def all_points(self) -> np.ndarray:
        """All points of all streamlines: ``points`` itself, not a copy."""
        return self.points


def _split_records(words: np.ndarray, n_records: int, width: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Split ``n_records`` count-prefixed streamline records off ``words``.

    A record is a point count k, then k * width words. Returns the words
    without the counts, the offsets (0, k_0, k_0 + k_1, ...) and the index
    past the last record, which the caller compares with its own end (it
    lies past ``words`` when the last record is cut short). Raises
    ShortStreamline for a count below 2 and TruncatedFile when fewer than
    ``n_records`` records start inside ``words``. Counts are checked after
    the walk, and nothing is sized from one before that.
    """
    n_words = words.shape[0]
    if n_records > n_words:  # each record takes at least its count word
        raise TruncatedFile(f"{n_records} records declared in {n_words} words")
    heads, pos = [], 0  # word index of each count; each fixes where the next is
    while len(heads) < n_records and 0 <= pos < n_words:  # a negative count steps back
        heads.append(pos)
        pos += 1 + width * int(words[pos])
    counts = words[heads]
    if (counts < 2).any():
        raise ShortStreamline(f"streamline of {counts.min()} points")
    if len(heads) < n_records:
        raise TruncatedFile(f"words end inside streamline {len(heads)} of {n_records}")
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    return np.delete(words[:pos], heads), offsets, pos


# ---------------------------------------------------------------------------
# ASCII polydata subset


_SKIPPABLE_BLOCKS = ("POLYGONS", "VERTS", "TRIANGLE_STRIPS", "CELL_DATA", "POINT_DATA")


def parse_polydata(data: bytes | str) -> Bundle:
    """Parse the supported ASCII polydata subset into a Bundle.

    Only ``POINTS`` and ``LINES`` blocks are interpreted; trailing
    attribute blocks (POLYGONS, CELL_DATA, POINT_DATA, ...) are skipped.
    A declared count that is negative or not an integer is a
    MalformedHeader.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("ascii", errors="strict")
        except UnicodeDecodeError as exc:
            raise MalformedHeader(f"file is not ASCII: {exc}") from None
    else:
        text = data

    lines = text.splitlines()
    if len(lines) < 4:
        raise TruncatedFile("fewer than 4 header lines")
    if not lines[0].startswith("# vtk DataFile Version"):
        raise MalformedHeader(f"bad header line: {lines[0]!r}")
    # lines[1] is a free-form title
    if lines[2].strip().upper() != "ASCII":
        raise MalformedHeader(f"expected ASCII encoding, got {lines[2]!r}")
    if lines[3].split()[:2] != ["DATASET", "POLYDATA"]:
        raise MalformedHeader(f"expected DATASET POLYDATA, got {lines[3]!r}")

    # One token list for the rest of the file: a keyword, its two header
    # tokens, then the block's size words.
    flat = [tok for ln in lines[4:] for tok in ln.split()]
    points = indices = None
    pos = 0
    while pos < len(flat):
        keyword = flat[pos].upper()
        if keyword in _SKIPPABLE_BLOCKS:
            # Attribute blocks commonly follow; skip the rest of the file.
            warnings.warn(f"skipping unsupported block {keyword}", stacklevel=2)
            break
        if keyword not in ("POINTS", "LINES"):
            raise MalformedHeader(f"unsupported keyword {keyword!r}")
        if pos + 3 > len(flat):
            raise TruncatedFile(f"file ends inside the {keyword} header")
        count, second = _parse_count(flat[pos + 1], f"{keyword} count"), flat[pos + 2]
        if keyword == "POINTS":
            if second.lower() not in ("float", "double"):
                raise MalformedHeader(f"unsupported POINTS type {second!r}")
            size, dtype = 3 * count, np.float64
        else:
            size, dtype = _parse_count(second, "LINES size"), np.int64
        pos += 3
        if pos + size > len(flat):
            raise TruncatedFile(f"{keyword} block truncated")
        try:
            block = np.array(flat[pos : pos + size], dtype=dtype)
        except (ValueError, OverflowError) as exc:
            raise MalformedHeader(f"bad {keyword} entry: {exc}") from None
        pos += size
        if keyword == "POINTS":
            points = block.reshape(count, 3)
        else:
            indices, offsets, end = _split_records(block, count, 1)
            if end != size:
                raise MalformedHeader(f"LINES size mismatch: declared {size}, the records take {end}")

    if points is None:
        raise TruncatedFile("missing POINTS block")
    if indices is None:
        raise TruncatedFile("missing LINES block")
    bad = (indices < 0) | (indices >= points.shape[0])
    if bad.any():
        raise IndexOutOfRange(f"point index {int(indices[bad][0])} outside [0, {points.shape[0]})")
    return Bundle(points[indices], offsets)


def _parse_count(tok: str, what: str) -> int:
    try:
        count = int(tok)
    except ValueError:
        raise MalformedHeader(f"expected integer for {what}, got {tok!r}") from None
    if count < 0:
        raise MalformedHeader(f"negative {what} {count}")
    return count


def write_polydata(bundle: Bundle, title: str = "bundleshape streamlines") -> bytes:
    """Serialize a Bundle to the ASCII polydata subset.

    Coordinates are printed with 9 significant digits, so a round trip
    reproduces them to well under 1e-6 mm at anatomical scales.
    """
    nop, nos = bundle.n_points, bundle.n_streamlines
    off = bundle.offsets.tolist()
    out = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET POLYDATA",
        f"POINTS {nop} float",
        *["%.9g %.9g %.9g" % tuple(p) for p in bundle.points.tolist()],
        f"LINES {nos} {nop + nos}",
        *[" ".join(map(str, [b - a, *range(a, b)])) for a, b in zip(off[:-1], off[1:])],
    ]
    return ("\n".join(out) + "\n").encode("ascii")


# ---------------------------------------------------------------------------
# Native binary format


def write_native(bundle: Bundle) -> bytes:
    """Serialize to the native binary format (32-bit little-endian coords)."""
    off = bundle.offsets
    words = np.insert(bundle.points.astype("<f4").view("<u4").ravel(), 3 * off[:-1], np.diff(off))
    return NATIVE_MAGIC + struct.pack("<BI", NATIVE_VERSION, bundle.n_streamlines) + words.tobytes()


def read_native(data: bytes) -> Bundle:
    """Read the native binary format; bit-exact at 32-bit precision.

    After the header (magic, version, NoS) come little-endian 4-byte words:
    per streamline its point count k, then its 3k float32 coordinates, split
    by :func:`_split_records`. Bytes after the last streamline are an error.
    """
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
    if nos == 0:
        raise TruncatedFile("bundle with zero streamlines")
    words = np.frombuffer(data, dtype="<u4", count=(len(data) - 9) // 4, offset=9)
    coords, offsets, end = _split_records(words, nos, 3)
    if end > words.shape[0]:
        raise TruncatedFile(f"file ends inside streamline {nos - 1} of {nos}")
    if 9 + 4 * end != len(data):
        raise MalformedHeader(f"{len(data) - 9 - 4 * end} trailing bytes after the last streamline")
    with np.errstate(invalid="ignore"):  # a signalling NaN warns when cast; Bundle refuses it
        points = coords.view("<f4").reshape(-1, 3).astype(np.float64)
    return Bundle(points, offsets)


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


# ---------------------------------------------------------------------------
# Stamped CSV


def write_csv(path, header, rows, comment: str | None = None) -> None:
    """Write an optional ``# comment`` line, the header row and one record
    per row, through :func:`replace_on_success`."""
    with replace_on_success(path) as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, header) -> list[list[str]]:
    """The records of a CSV written by :func:`write_csv`, ``#`` lines skipped.

    Raises MalformedHeader naming ``path`` for an empty file, a header other
    than ``header``, a record with the wrong number of fields, bytes that do
    not decode or a ``csv.Error``.
    """
    header = list(header)
    with open(path, newline="") as fh:
        try:
            records = list(csv.reader(ln for ln in fh if not ln.startswith("#")))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise MalformedHeader(f"{path}: {exc}") from None
    if not records:
        raise MalformedHeader(f"{path}: empty file, expected the header {','.join(header)}")
    if records[0] != header:
        raise MalformedHeader(f"{path}: header {','.join(records[0])} is not {','.join(header)}")
    for i, rec in enumerate(records[1:], 1):
        if len(rec) != len(header):
            raise MalformedHeader(f"{path}: record {i} has {len(rec)} fields, not {len(header)}")
    return records[1:]

"""Streamline bundle data model and file readers/writers.

Two on-disk formats are supported:

* a subset of legacy ASCII polydata (``DATASET POLYDATA`` with ``POINTS``
  and ``LINES`` blocks), the common interchange format for tractography.
  Each block's keyword opens a line, and one ``np.fromstring`` call reads
  the block's numbers, so parsing peaks at a small multiple of the file;
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
import itertools
import os
import re
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
    "PROLOGUE",
    "unpack_prologue",
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
        pos += 1 + width * words.item(pos)  # a Python int: no wraparound
    heads = np.array(heads, dtype=np.intp)
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
_HEADER = re.compile(rb"(.*)\n(.*)\n(.*)\n(?!\Z)(.*)")  # four lines, each without its newline
_BLOCK_HEAD = re.compile(rb"\n\s*([A-Za-z_]\S*)(?:\s+(\S+)\s+(\S+))?")  # a line's keyword, two tokens
_BARE_SIGN = re.compile(rb"[-+](?![0-9])")  # NumPy reads a lone sign as the integer 0
_INT64 = np.iinfo(np.int64)  # NumPy saturates an integer past int64 to one of its ends


def parse_polydata(data: bytes | str) -> Bundle:
    """Parse the supported ASCII polydata subset into a Bundle.

    Each block opens a line with its keyword and two header tokens, and one
    ``np.fromstring`` call converts its numbers. Only POINTS and LINES are
    read; trailing attribute blocks (CELL_DATA, POINT_DATA, ...) are skipped.
    ``str`` input is held to the same ASCII rule as ``bytes``.
    """
    if not data.isascii():
        raise MalformedHeader("file is not ASCII")
    data = data.encode("ascii") if isinstance(data, str) else data

    header = _HEADER.match(data)
    if header is None:
        raise TruncatedFile("fewer than 4 header lines")
    lines = [line.decode() for line in header.groups()]  # lines[1] is a free-form title
    if not lines[0].startswith("# vtk DataFile Version"):
        raise MalformedHeader(f"bad header line: {lines[0]!r}")
    if lines[2].strip().upper() != "ASCII":
        raise MalformedHeader(f"expected ASCII encoding, got {lines[2]!r}")
    if lines[3].split() != ["DATASET", "POLYDATA"]:
        raise MalformedHeader(f"expected DATASET POLYDATA, got {lines[3]!r}")

    points = indices = None
    end = header.end()  # each block's numbers end where the next head starts
    for head, nxt in itertools.pairwise(itertools.chain(_BLOCK_HEAD.finditer(data, end), [None])):
        if head.start() != end:
            raise MalformedHeader("numbers before the first block keyword")
        keyword, count, second = (tok and tok.decode().upper() for tok in head.groups())
        if keyword in _SKIPPABLE_BLOCKS:
            warnings.warn(f"skipping unsupported block {keyword}", stacklevel=2)
            break
        if keyword not in ("POINTS", "LINES"):
            raise MalformedHeader(f"unsupported keyword {keyword!r}")
        if second is None:
            raise TruncatedFile(f"file ends inside the {keyword} header")
        count = _parse_count(count, f"{keyword} count")
        if keyword == "POINTS" and second not in ("FLOAT", "DOUBLE"):
            raise MalformedHeader(f"unsupported POINTS type {second!r}")
        size = 3 * count if keyword == "POINTS" else _parse_count(second, "LINES size")
        dtype = np.float64 if keyword == "POINTS" else np.int64
        end = nxt.start() if nxt else len(data)
        chunk = data[head.end() : end]
        try:  # NumPy reads a blank block as one number, and older releases only warn on a bad token
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                block = np.fromstring(b"" if chunk.isspace() else chunk, dtype, sep=" ")
            if dtype is np.int64 and (_BARE_SIGN.search(chunk) or _INT64.min in block or _INT64.max in block):
                raise ValueError("a sign without digits, or a number past the int64 range")
        except (ValueError, DeprecationWarning) as exc:
            raise MalformedHeader(f"bad {keyword} entry: {exc}") from None
        if len(block) != size:
            error = TruncatedFile if len(block) < size else MalformedHeader
            raise error(f"{keyword} block holds {len(block)} numbers, {size} declared")
        if keyword == "POINTS":
            points = block.reshape(count, 3)
        else:
            indices, offsets, stop = _split_records(block, count, 1)
            if stop != size:
                raise MalformedHeader(f"LINES size mismatch: declared {size}, the records take {stop}")

    if points is None or indices is None:
        raise TruncatedFile(f"missing {'POINTS' if points is None else 'LINES'} block")
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
    reproduces them to well under 1e-6 mm at anatomical scales. The title
    must be one line of ASCII, as :func:`parse_polydata` reads it.
    """
    if not title.isascii() or "\n" in title or "\r" in title:
        raise ValueError(f"polydata title must be one line of ASCII, got {title!r}")
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


PROLOGUE = struct.Struct("<4sBI")  # what opens a bundle or checkpoint file: magic, version byte, u32


def unpack_prologue(data: bytes, magic: bytes, version: int, what: str) -> int:
    """The u32 of the :data:`PROLOGUE` that opens ``data``, a ``what`` file. Raises
    TruncatedFile for a file shorter than the prologue, BadMagic for another
    magic and BadVersion for another version."""
    if len(data) < 4:
        raise TruncatedFile("shorter than magic")
    if data[:4] != magic:
        raise BadMagic(f"bad {what} magic {data[:4]!r}")
    if len(data) < PROLOGUE.size:
        raise TruncatedFile(f"missing version or u32 after the {what} magic")
    if data[4] != version:
        raise BadVersion(f"unsupported {what} version {data[4]}")
    return PROLOGUE.unpack_from(data)[2]


def write_native(bundle: Bundle) -> bytes:
    """Serialize to the native binary format (32-bit little-endian coords)."""
    off = bundle.offsets
    words = np.insert(bundle.points.astype("<f4").view("<u4").ravel(), 3 * off[:-1], np.diff(off))
    return PROLOGUE.pack(NATIVE_MAGIC, NATIVE_VERSION, bundle.n_streamlines) + words.tobytes()


def read_native(data: bytes) -> Bundle:
    """Read the native binary format; bit-exact at 32-bit precision.

    After the prologue (magic, version, NoS) come little-endian 4-byte words:
    per streamline its point count k, then its 3k float32 coordinates, split
    by :func:`_split_records`. Bytes after the last streamline are an error.
    """
    nos = unpack_prologue(data, NATIVE_MAGIC, NATIVE_VERSION, "bundle")
    if nos == 0:
        raise TruncatedFile("bundle with zero streamlines")
    body = len(data) - PROLOGUE.size
    words = np.frombuffer(data, dtype="<u4", count=body // 4, offset=PROLOGUE.size)
    coords, offsets, end = _split_records(words, nos, 3)
    if end > words.shape[0]:
        raise TruncatedFile(f"file ends inside streamline {nos - 1} of {nos}")
    if 4 * end != body:
        raise MalformedHeader(f"{body - 4 * end} trailing bytes after the last streamline")
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

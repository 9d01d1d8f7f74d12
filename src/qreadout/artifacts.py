"""JSON and CSV artifact writers shared by every stage, and the column layout.

``write_json(doc, path)`` writes exactly the bytes of
``json.dumps(doc, indent=2, sort_keys=True)``, where an ``np.ndarray``
may stand wherever a list may, meaning its ``.tolist()``.  The standard
encoder writes them: since the column layout below, every JSON artifact
is a few kilobytes, so its per-number cost in Python does not show.

Every float array of a stage artifact is written in one column layout.
The large ones hold data in few columns: at 20000x3000 the observation
has 54 of its 20000 columns nonzero, the activations are one constant a
basis on every other column, and each 3000-entry weight vector has 4
nonzero entries.  ``encode_columns`` writes an array as ``{"shape",
"cols", "data", "fill"}``: each row's most frequent value, found by
sorting the floats' bits; the columns where any item's bits differ from
its row's fill; and those columns, row-major.  A poor fill only costs
size, never correctness.  ``decode_columns`` checks the layout and
rebuilds the full-width array, and refuses any other layout.

``write_csv(header, rows, path)`` writes the bytes the standard ``csv``
module's writer writes for rows of Python ints, floats and bools: each
cell's ``repr`` (for these types the writer's own text, which needs no
quoting), comma-separated, with CRLF line ends.  A cell may also be a
1-D float array, which stands for its items as Python floats, one cell
each.  A channel row of 20000 steps is 0.0 outside 27 of them (at
20000x3000), so a row is written from its structure: each distinct value
is formatted once, found by sorting the bits as above (so -0.0 and 0.0,
and each NaN, keep their own text), and each run of the row's most
frequent value is that text repeated, one string multiplication a run.
Such a row costs its other items, not one string per step.  The header
may be handed over as its comma-joined text, as ``simulate`` hands over
the channel files' 20001 names, built once.

Both writers write each artifact to a new file: a file already at the
path is removed first, never truncated.  Every stage rewrites
``run.json`` in the same directory, and on ext4 (default
``auto_da_alloc``) truncating a just-written file makes the kernel flush
it, so each rewrite waited for that disk write: 46 ms median, the four
rewrites 183 ms of a 231 ms five-stage run at 20000x3000 (2-CPU VM).
Removing the file starts no flush.  So a hard link to, or an open
handle on, the old file keeps the old bytes; a symlink at the path is
replaced by a plain file, not written through; and no durability is
promised, since every artifact is reproducible from its config and
seed.  Two other fixes were measured and rejected: writing a temporary
file and ``os.replace``-ing it over the path waits as long (34 ms
against 37 ms median a rewrite, 4 rewrites 30 ms apart with 1 MB
written between them), and rewriting in place with ``r+`` then
``truncate()`` is fast but can leave stale bytes behind.
"""

from __future__ import annotations

import json
import operator
from pathlib import Path

import numpy as np

from .errors import DimensionError, ValidationError


def write_json(doc, path: str | Path) -> None:
    """Write ``doc`` as ``json.dumps(doc, indent=2, sort_keys=True)`` does."""
    text = json.dumps(doc, indent=2, sort_keys=True, default=_as_list)
    with _create(path) as fh:
        fh.write(text)


def write_csv(header, rows, path: str | Path) -> None:
    """Write ``header``, then each row of numbers and float arrays, as CSV.

    ``header`` is the column names, or their comma-joined text.
    """
    if not isinstance(header, str):
        header = ",".join(header)
    with _create(path, newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(map(_csv_line, rows))


def encode_columns(arr: np.ndarray) -> dict:
    """A float vector or matrix in the column layout ``{"shape", "cols", "data", "fill"}``.

    A vector is one row.  ``fill`` holds each row's most frequent value,
    ``cols`` the columns where any item's bits differ from its row's fill
    (so a poor fill costs only size, and -0.0 and 0.0 stay distinct), and
    ``data`` those columns, row-major.  The arrays are handed over as they
    are, for ``write_json``.
    """
    rows = np.atleast_2d(arr)
    bits = rows.view(np.int64)
    fill = np.array([_most_frequent(row) for row in bits], dtype=np.int64)
    cols = np.flatnonzero((bits != fill[:, None]).any(axis=0))
    return {
        "shape": list(arr.shape),
        "cols": cols.tolist(),
        "data": rows[:, cols].ravel(),
        "fill": fill.view(float),
    }


def decode_columns(entry, name: str, expect: tuple | None = None) -> np.ndarray:
    """The float array an artifact holds under the key ``name``, in the column layout.

    The column layout of ``encode_columns`` is checked before it is
    rebuilt at full width; ``ValidationError`` names ``name`` when the
    entry is not an object holding the layout's four keys, or when its
    ``shape``, ``cols``, ``fill`` or ``data`` do not fit together, and
    ``DimensionError`` when its ``shape`` is not ``expect`` (a size None
    there matches any).  A layout with no cols declares its width in
    ``shape`` alone, so ``expect`` is what bounds the allocation by the
    artifact's config.
    """
    if not (isinstance(entry, dict) and {"shape", "cols", "data", "fill"} <= entry.keys()):
        raise ValidationError(f"{name}: must be a column layout: shape, cols, data, fill")
    shape, cols = entry["shape"], entry["cols"]
    if not (
        isinstance(shape, list) and len(shape) in (1, 2)
        and all(type(n) is int and n >= 0 for n in shape)
    ):
        raise ValidationError(f"{name}: shape must list 1 or 2 sizes, got {shape!r}")
    _check_shape(name, shape, expect)
    R, T = (1, *shape) if len(shape) == 1 else shape
    # exact types: JSON's true is not a column index, nor 2.0
    if not (
        isinstance(cols, list) and set(map(type, cols)) <= {int}
        and all(map(operator.lt, cols, cols[1:]))
        and (not cols or 0 <= cols[0] and cols[-1] < T)
    ):
        raise ValidationError(
            f"{name}: cols must be strictly increasing integers in [0, {T})"
        )
    fill = np.asarray(entry["fill"], dtype=float)
    data = np.asarray(entry["data"], dtype=float)
    for key, values, size in (("fill", fill, R), ("data", data, R * len(cols))):
        if values.shape != (size,):
            raise ValidationError(
                f"{name}: {key} must be a list of {size} numbers for shape {shape} "
                f"and {len(cols)} cols, got shape {values.shape}"
            )
    rows = np.empty((R, T))
    rows[:] = fill[:, None]
    rows[:, cols] = data.reshape(R, len(cols))
    return rows.reshape(shape)


def _check_shape(name: str, shape: list, expect: tuple | None) -> None:
    if expect is not None and not (
        len(shape) == len(expect)
        and all(e is None or n == e for n, e in zip(shape, expect))
    ):
        want = " x ".join("any" if e is None else str(e) for e in expect)
        raise DimensionError(f"{name}: shape must be {want}, got {shape!r}")


def _create(path: str | Path, newline: str | None = None):
    """A new text file at ``path``, open for writing; a file already there is removed first."""
    Path(path).unlink(missing_ok=True)
    return open(path, "w", newline=newline)


def _as_list(o):
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _csv_line(row) -> str:
    # each item's text and a comma; the row's last comma becomes its line end
    texts = []
    for cell in row:
        if isinstance(cell, np.ndarray):
            texts += _array_texts(cell)
        else:
            if isinstance(cell, np.generic):
                # numpy 2 writes np.float64(1.5) as its repr; the number is 1.5
                cell = cell.item()
            texts.append(repr(cell) + ",")
    return "".join(texts)[:-1] + "\r\n"


def _array_texts(cell: np.ndarray) -> list[str]:
    """A 1-D float array's items as CSV text, a comma after each item, in pieces.

    Each distinct value is formatted once, and each run of the most
    frequent value (the least such on a tie, as ``encode_columns`` picks
    its fill) is its text repeated; so a row costs its other items, not
    its length.
    """
    floats = np.asarray(cell, dtype=float)
    if not len(floats):
        return []
    # keyed by the bits, so -0.0 and 0.0 (and each NaN) keep their own text;
    # a float64 array is viewed as it is, whatever its strides
    bits = floats.view(np.int64)
    uniq, counts = _distinct(bits)
    texts = [text + "," for text in map(repr, uniq.view(float).tolist())]
    most = np.argmax(counts)
    fill = texts[most]
    others = np.flatnonzero(bits != uniq[most])
    # the run of fill before each other item, and the run that ends the row
    runs = np.diff(others, prepend=-1, append=len(bits)) - 1
    pieces = [""] * (2 * len(others) + 1)
    pieces[::2] = [fill * run for run in runs.tolist()]
    pieces[1::2] = [texts[i] for i in np.searchsorted(uniq, bits[others]).tolist()]
    return pieces


def _distinct(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``bits``, ascending, and how often each occurs.

    Found by sorting: np.unique hashes first, several times slower here.
    """
    ordered = np.sort(bits)
    starts = np.empty(len(ordered), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    return ordered[first], np.diff(first, append=len(ordered))


def _most_frequent(bits: np.ndarray) -> int:
    """The most frequent of a nonempty row's float bits, the least such on a tie."""
    uniq, counts = _distinct(bits)
    return uniq[np.argmax(counts)]

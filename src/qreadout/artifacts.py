"""JSON and CSV artifact writers shared by every stage.

``write_json(doc, path)`` writes exactly the bytes of
``json.dumps(doc, indent=2, sort_keys=True)``, where a float
``np.ndarray`` may stand wherever a list may, meaning its ``.tolist()``:
a 1-D array a flat list of numbers, an n-D array the list of its rows.
So the stages hand their matrices over as arrays, and no Python list of
their floats is built.  ``json`` formats indented output with its
pure-Python encoder, one number at a time, which makes the large numeric
lists of the stage artifacts slow to write.  Here the containers are
walked as the indenting encoder walks them, and each flat list of numbers
goes through the C encoder in fixed slices: compact ``json.dumps``
separates items with ``", "``, no number's text contains that, so
replacing it with ``","`` plus the line indent gives the indented layout.
A list of floats alone usually repeats a few values (the activations of
the register's empty columns, its zero magnitudes), so when at most half
its items are distinct, each distinct value is formatted once by the C
encoder, and every slice joins the texts of its items.  The distinct
values are found by sorting the floats' bits, so that -0.0 and 0.0 keep
their own text.  Every other value is encoded by ``json.dumps`` itself, so
NaN, Infinity, string escapes and empty containers come out as before.
The file is streamed, never held whole in memory.

``write_csv(header, rows, path)`` writes the bytes the standard ``csv``
module's writer writes for rows of Python ints, floats and bools: each
cell's ``repr`` (for these types the writer's own text, which needs no
quoting), comma-separated, with CRLF line ends.  A cell may also be a 1-D
float array, which stands for its items as Python floats, one cell each.
A channel row of 20000 steps holds about 53 distinct values, so when at
most half an array's values are distinct, each distinct value is
formatted once through the same lookup as above.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

_INDENT = "  "
_SLICE = 1024  # numbers per C-encoder call


def write_json(doc, path: str | Path) -> None:
    """Write ``doc`` as ``json.dumps(doc, indent=2, sort_keys=True)`` does."""
    with open(path, "w") as fh:
        fh.writelines(_encode(doc, 0))


def write_csv(header, rows, path: str | Path) -> None:
    """Write the ``header`` names, then each row of numbers and float arrays, as CSV."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(map(_csv_line, rows))


def _csv_line(row) -> str:
    texts = []
    for cell in row:
        if isinstance(cell, np.ndarray):
            lookup = _distinct_texts(cell, lambda values: list(map(repr, values)))
            texts += lookup(0, len(cell)) if lookup else map(repr, cell.tolist())
        else:
            texts.append(repr(cell))
    return ",".join(texts) + "\r\n"


def _encode(o, level: int):
    if isinstance(o, np.ndarray) and not (o.dtype == float and o.ndim == 1 and len(o)):
        # a nonempty 1-D float array is encoded as it is, an n-D one as the
        # list of its rows; any other array (ints, 0-d, empty) as its .tolist()
        o = list(o) if o.dtype == float and o.ndim > 1 else o.tolist()
    inner = "\n" + _INDENT * (level + 1)
    if isinstance(o, dict) and o and all(isinstance(k, str) for k in o):
        sep = "{" + inner
        for key, value in sorted(o.items()):
            yield sep + json.dumps(key) + ": "
            yield from _encode(value, level + 1)
            sep = "," + inner
        yield "\n" + _INDENT * level + "}"
    elif isinstance(o, (list, tuple, np.ndarray)) and len(o):
        sep = "[" + inner
        types = {float} if isinstance(o, np.ndarray) else set(map(type, o))
        if types <= {int, float}:
            for text in _number_slices(o, types, "," + inner):
                yield sep
                yield text
                sep = "," + inner
        else:
            for value in o:
                yield sep
                yield from _encode(value, level + 1)
                sep = "," + inner
        yield "\n" + _INDENT * level + "]"
    elif isinstance(o, dict) and o:
        # non-string keys, which json converts; its indented text holds no
        # raw newline except its own line breaks
        text = json.dumps(o, indent=len(_INDENT), sort_keys=True)
        yield text.replace("\n", "\n" + _INDENT * level)
    else:
        # scalars and empty containers read the same without indent; the
        # indenting encoder would build a cycle of closures per value, which
        # lingers until collected and raised peak memory
        yield json.dumps(o)


def _number_slices(o, types: set, join: str):
    """A flat list of numbers or 1-D float array as JSON text, ``_SLICE`` items at a time joined by ``join``."""
    if types == {float}:
        lookup = _distinct_texts(o, lambda values: json.dumps(values)[1:-1].split(", "))
        if lookup is not None:
            for i in range(0, len(o), _SLICE):
                yield join.join(lookup(i, i + _SLICE))
            return
    # ints, which np.asarray would make floats, and mostly distinct values
    if isinstance(o, np.ndarray):
        o = o.tolist()
    for i in range(0, len(o), _SLICE):
        yield json.dumps(o[i : i + _SLICE])[1:-1].replace(", ", join)


def _distinct_texts(floats, fmt):
    """The texts of a flat list or 1-D array of floats, each distinct value formatted once.

    ``fmt`` turns the list of distinct values into their texts.  Returns a
    function that gives the texts of the items ``start:stop``, or ``None``
    when more than half the values are distinct: then a lookup costs more
    than formatting each item.
    """
    # keyed by the bits, so -0.0 and 0.0 (and each NaN) keep their own text;
    # a float64 array is viewed as it is, whatever its strides
    bits = np.asarray(floats, dtype=float).view(np.int64)
    # the distinct bits are the starts of the runs of the sorted bits:
    # np.unique hashes first, several times slower here
    ordered = np.sort(bits)
    starts = np.empty(len(ordered), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    uniq = ordered[starts]
    if 2 * len(uniq) > len(bits):
        return None
    texts = np.array(fmt(uniq.view(float).tolist()), dtype=object)
    # each call looks its items up, so no full-length index is held
    return lambda start, stop: texts[np.searchsorted(uniq, bits[start:stop])].tolist()

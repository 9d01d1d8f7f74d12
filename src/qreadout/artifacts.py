"""JSON and CSV artifact writers shared by every stage.

``write_json(doc, path)`` writes exactly the bytes of
``json.dumps(doc, indent=2, sort_keys=True)``.  ``json`` formats indented
output with its pure-Python encoder, one number at a time, which makes
the large numeric lists of the stage artifacts slow to write.  Here the
containers are walked as the indenting encoder walks them, and each flat
list of numbers goes through the C encoder in fixed slices: compact
``json.dumps`` separates items with ``", "``, no number's text contains
that, so replacing it with ``","`` plus the line indent gives the
indented layout.  A list of floats alone usually repeats a few values
(the activations of the register's empty columns, its zero magnitudes),
so when at most half its items are distinct, each distinct value is
formatted once by the C encoder, keyed by its bits so that -0.0 and 0.0
keep their own text, and every slice joins the texts of its items.
Every other value is encoded by ``json.dumps`` itself, so NaN, Infinity,
string escapes and empty containers come out as before.  The file is
streamed, never held whole in memory.

``write_csv(header, rows, path)`` writes the bytes the standard ``csv``
module's writer writes for rows of Python ints, floats and bools: each
cell's ``repr`` (for these types the writer's own text, which needs no
quoting), comma-separated, with CRLF line ends.
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
    """Write the ``header`` names, then each row of Python numbers, as CSV."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def _encode(o, level: int):
    inner = "\n" + _INDENT * (level + 1)
    if isinstance(o, dict) and o and all(isinstance(k, str) for k in o):
        sep = "{" + inner
        for key, value in sorted(o.items()):
            yield sep + json.dumps(key) + ": "
            yield from _encode(value, level + 1)
            sep = "," + inner
        yield "\n" + _INDENT * level + "}"
    elif isinstance(o, (list, tuple)) and o:
        sep = "[" + inner
        types = set(map(type, o))
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
    """A flat list of numbers as JSON text, ``_SLICE`` items at a time joined by ``join``."""
    if types == {float}:
        # keyed by the bits, so -0.0 and 0.0 (and each NaN) keep their own text
        bits = np.array(o).view(np.int64)
        uniq = np.unique(bits)
        if 2 * len(uniq) <= len(o):
            texts = json.dumps(uniq.view(float).tolist())[1:-1].split(", ")
            texts = np.array(texts, dtype=object)
            # each slice looks its items up, so no full-length index is held
            for i in range(0, len(o), _SLICE):
                where = np.searchsorted(uniq, bits[i : i + _SLICE])
                yield join.join(texts[where].tolist())
            return
    # ints, which np.array would make floats, and lists of mostly distinct values
    for i in range(0, len(o), _SLICE):
        yield json.dumps(o[i : i + _SLICE])[1:-1].replace(", ", join)

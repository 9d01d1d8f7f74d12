"""JSON and CSV artifact writers shared by every stage.

``write_json(doc, path)`` writes exactly the bytes of
``json.dumps(doc, indent=2, sort_keys=True)``.  ``json`` formats indented
output with its pure-Python encoder, one number at a time, which makes
the large numeric lists of the stage artifacts slow to write.  Here the
containers are walked as the indenting encoder walks them, and each flat
list of numbers goes through the C encoder in fixed slices: compact
``json.dumps`` separates items with ``", "``, no number's text contains
that, so replacing it with ``","`` plus the line indent gives the
indented layout.  Every other value is encoded by ``json.dumps`` itself,
so NaN, Infinity, string escapes and empty containers come out as before.
The file is streamed, never held whole in memory.

``write_csv(header, rows, path)`` writes the bytes the standard ``csv``
module's writer writes for rows of Python ints, floats and bools: each
cell's ``repr`` (for these types the writer's own text, which needs no
quoting), comma-separated, with CRLF line ends.
"""

from __future__ import annotations

import json
from pathlib import Path

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
        if set(map(type, o)) <= {int, float}:
            for i in range(0, len(o), _SLICE):
                yield sep
                yield json.dumps(o[i : i + _SLICE])[1:-1].replace(", ", "," + inner)
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

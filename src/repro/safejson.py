"""One bounded JSON decoder for every external input.

:func:`json.loads` recurses once per nesting level, so a short document
nested a few thousand deep (``[[[[...]]]]``) raises :class:`RecursionError`,
which is not a :class:`ValueError` and escapes every handler that guards an
input.  :func:`loads` re-raises it as :class:`json.JSONDecodeError`, so the
caller answers it like any other malformed document.

    >>> loads('{"a": [1]}')
    {'a': [1]}
    >>> loads("[" * 100_000 + "]" * 100_000)
    Traceback (most recent call last):
    ...
    json.decoder.JSONDecodeError: document nested too deeply: line 1 column 1 (char 0)
"""

from __future__ import annotations

import json
from typing import Any


def loads(document: str | bytes) -> Any:
    """:func:`json.loads` that fails with ``JSONDecodeError`` on deep nesting."""
    try:
        return json.loads(document)
    except RecursionError:
        raise json.JSONDecodeError("document nested too deeply", "", 0) from None


__all__ = ["loads"]

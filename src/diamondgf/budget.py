"""The one switch that lifts the size guards of the costly routes.

E_d by counting words, the recurrence and Stanley's sum over linear
extensions refuse an input past their limit through ``check`` with
``TooLarge``, except inside ``with lifted():``, which holds for the current
thread or task only. Nothing here lifts the hard budgets: linear-extension
words (``poset.MAX_JH_WORDS``) and series cells (``series.MAX_SERIES_CELLS``).
"""

import contextlib
import contextvars
from typing import Iterator

_lifted = contextvars.ContextVar("diamondgf_guards_lifted", default=False)


class TooLarge(ValueError):
    """An input past a size guard that ``lifted()`` would lift."""


@contextlib.contextmanager
def lifted(on: bool = True) -> Iterator[None]:
    """Lift the size guards (keep them when not ``on``) inside the ``with``."""
    token = _lifted.set(on)
    try:
        yield
    finally:
        _lifted.reset(token)


def check(value: int, limit: int, message: str) -> None:
    """Raise ``TooLarge(message)`` when ``value`` passes ``limit``, unless lifted."""
    if value > limit and not _lifted.get():
        raise TooLarge(message)

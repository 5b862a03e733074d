"""The one switch that lifts the size guards of the costly routes.

E_d by counting words and Stanley's sum over linear extensions refuse an input
past their limit through ``check``, except inside ``with lifted():``, which
holds for the current thread or task only. Nothing here lifts the
linear-extension word budget (``poset.MAX_JH_WORDS``).
"""

import contextlib
import contextvars
from typing import Iterator

_lifted = contextvars.ContextVar("diamondgf_guards_lifted", default=False)


@contextlib.contextmanager
def lifted(on: bool = True) -> Iterator[None]:
    """Lift the size guards (keep them when not ``on``) inside the ``with``."""
    token = _lifted.set(on)
    try:
        yield
    finally:
        _lifted.reset(token)


def check(value: int, limit: int, error: type[Exception], message: str) -> None:
    """Raise ``error(message)`` when ``value`` passes ``limit``, unless lifted."""
    if value > limit and not _lifted.get():
        raise error(message)

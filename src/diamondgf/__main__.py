"""``python -m diamondgf``: the ``diamondgf`` command, runnable from a
checkout with ``src`` on the path."""

from .cli import entry

if __name__ == "__main__":
    entry()

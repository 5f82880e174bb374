"""``python -m parityfix``: the ``parityfix`` command line."""

from .cli import run

run()

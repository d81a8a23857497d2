"""``python -m ringscope``: the command-line interface."""

from .cli import main

main()

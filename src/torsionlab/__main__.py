"""Entry point for ``python -m torsionlab``."""

from .cli import main

main()

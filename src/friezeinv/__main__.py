"""Entry point of ``python -m friezeinv``; the same CLI as ``friezeinv``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

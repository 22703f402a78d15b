"""`python -m qbipoly`: the same front door as the `qbipoly` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

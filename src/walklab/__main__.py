"""`python -m walklab`: the command line of `walklab.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""`python -m frenetdir`: the same command line as the `frenetdir` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

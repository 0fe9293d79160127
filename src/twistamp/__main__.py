"""`python -m twistamp`: the command line interface of twistamp.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

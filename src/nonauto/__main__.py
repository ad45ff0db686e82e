"""`python -m nonauto`: the command line interface of `nonauto.cli`."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

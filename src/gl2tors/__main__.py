"""`python -m gl2tors`: the command line of gl2tors.cli."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

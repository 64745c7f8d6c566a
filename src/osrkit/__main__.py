"""``python -m osrkit``: the command-line interface without an installed script."""

import sys

from .cli import main

if __name__ == "__main__":  # importing the package's modules must not run the CLI
    sys.exit(main())

"""`python -m primchaos ...` runs the command line, as the `primchaos`
script does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""``python -m klmpc``: the klmpc command without an installed script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

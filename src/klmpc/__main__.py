"""``python -m klmpc`` and the ``klmpc`` script: the command line, on one
BLAS thread unless the environment names a count."""

import os
import sys


def main(argv=None) -> int:
    # the fit's last bits depend on the BLAS thread count, and the closed
    # loop amplifies them; the variables only count before numpy is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from .cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())

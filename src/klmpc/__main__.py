"""``python -m klmpc`` and the ``klmpc`` script: the command line, on one
BLAS thread unless the environment names a count."""

import os
import sys

# the thread counts of the BLAS libraries numpy may load; this module
# imports no numpy, so the suite can read them before numpy loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


def main(argv=None) -> int:
    # the fit's last bits depend on the BLAS thread count, and the closed
    # loop amplifies them; the variables only count before numpy is imported
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    try:
        from .cli import main as cli_main
    except ImportError as exc:    # numkit checks numpy's private LAPACK names
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())

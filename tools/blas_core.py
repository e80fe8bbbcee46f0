"""Print the core name of numpy's bundled OpenBLAS: the kernel set it loaded.

    python3 tools/blas_core.py

The kernel set decides the fitted models' last bits.  A numpy with no bundled
OpenBLAS, or one whose library lacks the lookup, prints a ``note:`` line in
place of the name; the exit status is 0 either way.
"""

import ctypes
import glob
import os

import numpy


def main() -> None:
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError) as exc:
        print(f"note: no bundled OpenBLAS core name ({exc!r})")
    else:
        corename.restype = ctypes.c_char_p
        print(corename().decode())


if __name__ == "__main__":
    main()

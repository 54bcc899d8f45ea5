"""The `outliertest` command and `python -m outlier_testing`, with one BLAS thread.

Multithreaded BLAS slows the small dense solves the commands run, such as
the SLSQP step of the pair-program solver, as soon as another process
shares the cores.  So the BLAS thread counts default to 1 here, before
numpy is imported; a value already set in the environment wins.  Importing
`outlier_testing.cli` as a library leaves the environment alone.
"""
import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from .cli import main as cli_main  # the first import of numpy

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())

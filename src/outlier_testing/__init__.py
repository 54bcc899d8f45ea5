"""Universal outlier hypothesis tests, error exponents, and exact error oracles."""

__all__ = ["Pmf", "bhattacharyya", "chernoff", "entropy", "kl"]

__version__ = "0.1.0"


def __getattr__(name):
    # the re-exports load numpy on first use, so that the command-line entry
    # point (__main__.py) can set BLAS threading before numpy is imported
    if name in __all__:
        from . import simplex

        return getattr(simplex, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

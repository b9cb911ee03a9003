"""Load libcst before any test runs, with its import-time DeprecationWarning ignored.

When a hypothesis test fails, hypothesis's pytest plugin imports libcst to suggest a patch,
and libcst imports ``mypy_extensions.TypedDict``, which warns.  Under ``-W error`` that
warning would abort the session with INTERNALERROR and hide every later test; a
``filterwarnings`` ini entry cannot stop it, because the command line's ``-W`` wins.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass

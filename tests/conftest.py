"""Test-harness setup shared by every test module.

When a ``@given`` test fails, hypothesis's pytest plugin imports
``libcst`` to print its explanation; some ``libcst`` releases warn with a
``DeprecationWarning`` from ``mypy_extensions`` on import, and the
``error`` warning filter then aborts the whole session.  Importing it
here once, with that warning ignored, lets the failure be reported.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass

import contextlib
import warnings

import numpy as np
import pytest

# hypothesis imports its patch writer when a test fails, and the libcst it
# imports warns on import; under filterwarnings = error that warning would
# end the whole session with INTERNALERROR instead of reporting the failure
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

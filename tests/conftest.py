"""Suite-wide configuration.

``helpers`` holds the closeness assertions every test module uses. pytest
rewrites the asserts of test modules only, so without this registration
``python -O`` strips the asserts in ``helpers`` and every closeness check
passes with nothing checked.
"""

import pytest

pytest.register_assert_rewrite("helpers")

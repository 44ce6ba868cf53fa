"""The one exception type granulom raises for bad input.

Every malformed file, config value or argument, and every violated
precondition, is a DataError; the CLI exits 2 on it and prints its message
as one line. Usage errors exit 1 and OSError exits 3.
"""

import numpy as np


class DataError(ValueError):
    """Malformed input data or a violated operation precondition."""


def real_array(values, what: str) -> np.ndarray:
    """`values` as a float64 array, not copied if it is one; a DataError unless all are real."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{what} must hold real numbers: {exc}") from None

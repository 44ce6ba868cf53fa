"""The one exception type granulom raises for bad input.

Every malformed file, config value or argument, and every violated
precondition, is a DataError; the CLI exits 2 on it and prints its message
as one line. Usage errors exit 1 and OSError exits 3.
"""


class DataError(ValueError):
    """Malformed input data or a violated operation precondition."""

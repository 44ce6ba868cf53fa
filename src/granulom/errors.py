"""Exception hierarchy shared by all granulom modules.

The CLI maps these onto exit codes: usage errors exit 1, DataError and
subclasses exit 2, OSError exits 3.
"""


class GranulomError(Exception):
    """Base class for all errors raised by this package."""


class DataError(GranulomError, ValueError):
    """Malformed input data or a violated operation precondition."""


# --- netpbm parsing ---------------------------------------------------------

class PnmError(DataError):
    """Base for PGM/PPM parse failures."""


class MalformedHeaderError(PnmError):
    pass


class TruncatedPayloadError(PnmError):
    pass


class UnsupportedMaxvalError(PnmError):
    pass


# --- datasets and CSV files -------------------------------------------------

class DatasetError(DataError):
    """Base for dataset construction and CSV parsing failures."""


class RaggedRowError(DatasetError):
    pass


class DuplicateSampleIdError(DatasetError):
    pass


class NonNumericValueError(DatasetError):
    pass

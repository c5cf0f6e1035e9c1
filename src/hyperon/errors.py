"""Data errors, importable with no dependency so that every CLI command can catch them."""


class DataError(Exception):
    """Malformed or inconsistent input data."""


class ParameterFileError(DataError):
    pass


class EventFileError(DataError):
    pass

"""Shared exception types."""


class ParseError(ValueError):
    """A file did not conform to its expected format.

    Carries the path and 1-based line number (or record index for binary
    files) where parsing failed.
    """

    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")

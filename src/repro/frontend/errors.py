"""Errors raised by the NF dialect compiler."""

from __future__ import annotations


class NFCompileError(SyntaxError):
    """Raised when NF dialect source uses an unsupported construct.

    The message always names the offending construct and, when available,
    the line of the NF's source (``SyntaxError`` renders it as
    ``(line N)``), so that NF authors can fix the code without reading the
    compiler.
    """

    def __init__(self, message: str, lineno: int | None = None) -> None:
        super().__init__(message)
        self.lineno = lineno

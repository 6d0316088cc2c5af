"""Exception hierarchy shared across the package.

Every error raised on a bad input derives from :class:`MarginlabError`, so
callers (in particular the command-line layer) can map failure classes to
exit codes without string matching.
"""

from __future__ import annotations

import sys


class MarginlabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MarginlabError, ValueError):
    """A parameter is outside the mathematically meaningful range."""


class SizingError(DomainError):
    """A requested size works out to something unusable (zero rows, empty block)."""


class CapExceededError(MarginlabError):
    """An exhaustive operation was asked to exceed its enumeration cap."""


class UsageError(MarginlabError):
    """Command line was malformed (unknown flag, missing argument)."""


def check_float_range(name: str, value: int) -> None:
    """Reject an integer size of either sign that would overflow the first float it meets."""
    if abs(value) > sys.float_info.max:
        raise DomainError(f"{name} exceeds the float range")


_MAX_ENTRIES = 1 << 27  # largest matrix built (1 GiB of float64)


def check_matrix_size(rows: int, cols: int) -> None:
    """Reject a rows x cols matrix of more than 2^27 entries before it is allocated."""
    if rows * cols > _MAX_ENTRIES:
        raise SizingError(f"{rows} x {cols} matrix exceeds the limit of {_MAX_ENTRIES} entries")

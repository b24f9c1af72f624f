"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: UsageError -> 1, NumericalError -> 2.
Exit code 3 is a failed `kilab verify` (cli.EXIT_VERIFY), not an exception.
"""


class KilabError(Exception):
    """Base class for all package errors."""


class UsageError(KilabError):
    """Invalid arguments, preconditions, or configuration."""


class NumericalError(KilabError):
    """A numerical procedure failed (factorization, quadrature, eigensolver)."""


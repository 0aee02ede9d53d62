"""Exception types shared across the package.

Two refusal types, told apart by the exit code ``cohlab`` gives them:
:class:`InvalidArgumentError` (exit 2) for any argument that breaks an
operation's precondition, whatever the argument, and
:class:`VacuousGuaranteeError` (exit 4) for a guarantee that holds only
vacuously at the given parameters.
"""


class CohlabError(Exception):
    """Base class for all cohlab errors."""


class InvalidArgumentError(CohlabError, ValueError):
    """Argument, or argument combination, violates an operation precondition."""


class VacuousGuaranteeError(CohlabError, RuntimeError):
    """The requested guarantee is vacuous at the given parameters."""

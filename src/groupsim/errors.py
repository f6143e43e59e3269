"""Exception types shared across the package."""


class GroupsimError(Exception):
    """Base class for errors raised by this package."""


class EmbeddingFormatError(GroupsimError, ValueError):
    """Raised when an embedding, frequency, or pair file cannot be parsed."""


class UnknownTokenError(GroupsimError, KeyError):
    """Raised when a token the caller names, such as the pad token, is not in the vocabulary."""

    def __str__(self) -> str:  # KeyError's own __str__ would quote the message
        return Exception.__str__(self)


class DegenerateCurvatureError(GroupsimError, ArithmeticError):
    """Raised when an observed-information diagonal entry underflows.

    Callers that can tolerate this may retry with the parameter-count
    penalty (AIC) instead of the gradient-based one.
    """

"""Exception types shared across the package."""


class NCFactorError(Exception):
    """Base class for all library errors."""


class ContextMismatchError(NCFactorError):
    """Operands live in different fields, symbol rings, or alphabets."""


class UnsupportedFieldError(NCFactorError):
    """The operation needs a finite coefficient field."""


class SearchSpaceTooLargeError(NCFactorError):
    """Branching over the values of the symbols left would exceed the configured cap.

    Solving over F_p branches only where elimination cannot go on: no
    equation is univariate or linear in a symbol, and no two equations in the
    same two symbols have a resultant that F_p has the points to form and
    that does not vanish.  `needed` is p**k for the k symbols still free there.
    """

    def __init__(self, needed: int, cap: int):
        super().__init__(f"enumeration needs {needed} points, cap is {cap}")
        self.needed = needed
        self.cap = cap


class BudgetExceededError(NCFactorError):
    """A brute-force search exceeded its evaluation budget."""

    def __init__(self, needed: int, budget: int):
        super().__init__(f"search needs {needed} evaluations, budget is {budget}")
        self.needed = needed
        self.budget = budget


class NotAGroebnerBasisError(NCFactorError):
    """Input claimed to be a Groebner basis but an S-polynomial does not reduce to zero."""


class RefinementError(NCFactorError):
    """Two factorizations do not satisfy the refinement hypotheses."""


class ParseError(NCFactorError):
    """Expression text does not conform to the grammar."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {', '.join(expected)})"
        super().__init__(detail)
        self.position = position
        self.expected = expected

"""Exception types shared across the package."""


class SemibroadcastError(Exception):
    """Base class for all package-specific errors."""


class InvalidOperator(SemibroadcastError):
    """Matrix fails the defining invariants of its operator type."""


class InvalidFactorIndex(SemibroadcastError):
    """Tensor-factor index outside the factorization."""


class InvalidCut(SemibroadcastError):
    """Bipartition request that is empty, full, or out of range."""


class SupportViolation(SemibroadcastError):
    """First argument of a relative entropy leaks outside the support of the second."""


class DimensionMismatch(SemibroadcastError):
    """Operands whose dimensions cannot be combined as requested."""


class IndexOutOfRange(SemibroadcastError):
    """Variant or outcome index outside its admissible range."""


class WrongKind(SemibroadcastError):
    """Operation applied to an interaction kind it is not defined for."""


class DimensionBudgetExceeded(SemibroadcastError):
    """Dense joint dimension above the supported ceiling."""


class NonPositiveMemoryEntropy(SemibroadcastError):
    """Witness arithmetic requires strictly positive memory entropy."""


class NotInvertible(SemibroadcastError):
    """Statistics reconstruction attempted at (or too close to) the uninformative point."""


class InvalidBlocks(SemibroadcastError):
    """Broadcast block family violates positivity or mutual orthogonality."""


class ConfigError(SemibroadcastError):
    """Malformed or inconsistent experiment configuration."""


class DegenerateOutcomeWarning(UserWarning):
    """Outcomes at the probability floor were dropped from a sum over conditional states rho^x = <x|rho|x> / p_x."""

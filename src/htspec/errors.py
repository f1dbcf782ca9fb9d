"""Exception hierarchy.

Two branches matter for the CLI exit-code contract: ``ValidationError``
(bad input or violated structural precondition, exit code 2) and
``ConvergenceError`` (a numerical routine exhausted its iteration or
restart budget, exit code 3).
"""


class ValidationError(ValueError):
    """Input violates a documented invariant or precondition."""


class ConvergenceError(RuntimeError):
    """A numerical routine failed to reach its tolerance in budget."""


# -- hypergraph construction and transforms ---------------------------------

class NonUniformEdge(ValidationError):
    """An edge does not have exactly k distinct vertices."""


class VertexOutOfRange(ValidationError):
    """A vertex label lies outside 1..n."""


class DuplicateEdge(ValidationError):
    """The same edge occurs more than once."""


class PowerBelowUniformity(ValidationError):
    """Requested power uniformity is smaller than the base uniformity."""


class NotAHypertree(ValidationError):
    """Operation requires a connected acyclic uniform hypergraph."""


class NotAHyperforest(ValidationError):
    """Operation requires a disjoint union of hypertrees."""


# -- matching / enumeration budgets ------------------------------------------

class TooManyEdgesForOracle(ValidationError):
    """Edge count exceeds the brute-force enumeration limit."""


class CatalogTooLarge(ValidationError):
    """Connected edge-subset enumeration exceeded the configured cap."""


# -- spectra -------------------------------------------------------------------

class UniformityTwoUnsupported(ValidationError):
    """Spectrum operations are defined here only for uniformity k >= 3."""


class DimensionMismatch(ValidationError):
    """Vector length does not match the vertex count."""


class DidNotConverge(ConvergenceError):
    """Root refinement did not reach the residual target, overflowed
    floats, or met real roots that floats cannot tell apart."""


class NoConvergence(ConvergenceError):
    """The eigenvector elimination met a pole, or its vector missed the
    tolerance."""


# -- reference data -------------------------------------------------------------

class UnknownFixture(ValidationError):
    """No built-in characteristic-polynomial factorization by that name."""


class MismatchReport(ValidationError):
    """A cross-validation failed; carries both sides of the comparison.

    Attributes:
        name: fixture identifier being checked.
        expected, got: the two sides of the failed set comparison.
    """

    def __init__(self, name, message, expected=None, got=None):
        super().__init__(f"{name}: {message}")
        self.name = name
        self.expected = expected
        self.got = got


class NoHostWitness(MismatchReport):
    """A nonzero spectrum value has no eigenvector witness on the host
    within tol; the factor bases were checked before and matched."""

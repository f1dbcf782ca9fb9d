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


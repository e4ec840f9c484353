"""Exception hierarchy shared by all engine modules."""


class EngineError(Exception):
    """Base class; carries a short machine-readable code for reports."""

    code = "engine-error"

    def __init__(self, message: str = "", **details):
        super().__init__(message)
        self.details = details


class DimensionMismatch(EngineError):
    code = "dimension-mismatch"


class IndexOutOfRange(EngineError):
    code = "index-out-of-range"


class JacobiFailure(EngineError):
    code = "jacobi-failure"


class TwistNotClosed(EngineError):
    code = "twist-not-closed"


class StructureNotReal(EngineError):
    code = "structure-constants-not-real"


class NotIsotropic(EngineError):
    code = "not-isotropic"


class NotClosedUnderBracket(EngineError):
    code = "not-closed-under-bracket"


class NotAlmostComplex(EngineError):
    code = "not-almost-complex"


class NotOrthogonal(EngineError):
    code = "not-orthogonal"


class NotIntegrable(EngineError):
    code = "not-integrable"


class SpectrumViolation(EngineError):
    code = "spectrum-violation"


class DegenerateOmega(EngineError):
    code = "degenerate-omega"


class OmegaNotClosed(EngineError):
    code = "omega-not-closed"


class BMismatch(EngineError):
    code = "b-mismatch"


class TwistWrongType(EngineError):
    code = "twist-wrong-type"


class WrongType(EngineError):
    code = "wrong-type"


class GraphConditionFailed(EngineError):
    code = "graph-condition-failed"


class NotClosed(EngineError):
    code = "not-closed"


class SectionNotClosed(EngineError):
    code = "section-not-closed"


class ExtensionFailed(EngineError):
    code = "extension-failed"


class NotCommuting(EngineError):
    code = "not-commuting"


class MetricNotPositive(EngineError):
    code = "metric-not-positive"


class SplitNotIntegrable(EngineError):
    code = "split-not-integrable"


class NotADecomposition(EngineError):
    code = "not-a-decomposition"


class SpinorNotClosed(EngineError):
    code = "spinor-not-closed"


class ModelSyntaxError(EngineError):
    code = "syntax-error"

    def __init__(self, message: str, line: int | None = None, col: int = 0):
        """`line` is a model-file line; without one (a command-line value)
        the message carries no position."""
        if line is not None:
            message = f"{message} (line {line}, col {col})"
        super().__init__(message, line=line, col=col)
        self.line = line
        self.col = col


class UnknownGenerator(ModelSyntaxError):
    code = "unknown-generator"


class DimensionOdd(EngineError):
    code = "dimension-odd"


class DimensionTooLarge(EngineError):
    code = "dimension-too-large"

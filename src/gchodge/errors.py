"""Exception hierarchy shared by all engine modules, and `record`, the
field-wise class decorator of the engine's reports."""


def record(cls):
    """Give `cls` the `__init__`, `__eq__` and `__repr__` that
    `@dataclasses.dataclass` would, from its own annotations in order: every
    field is required and may be passed by position or keyword, and
    `__hash__` is None.  Importing `dataclasses` pulls in `inspect` and `ast`,
    and each class it decorates compiles generated source; these are plain
    closures over the field names."""
    names = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} fields "
                            f"but {len(args)} were given")
        values = dict(zip(names, args))
        for key in kwargs:
            if key in values or key not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected or "
                                f"repeated argument {key!r}")
        values.update(kwargs)
        missing = [n for n in names if n not in values]
        if missing:
            raise TypeError(f"{cls.__name__}() missing {missing}")
        for n in names:
            setattr(self, n, values[n])

    def fields(obj):
        return tuple(getattr(obj, n) for n in names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __repr__(self):
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(names, fields(self)))
        return f"{self.__class__.__qualname__}({inner})"

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = None
    return cls


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

"""Typed errors shared by every module, and the argument rules that raise them.

Shape algebra is total: an operation either returns a tensor whose shape
follows its documented formula or raises one of these. Nothing broadcasts
silently. Each rule below is stated once and called by every site that
needs it; ``name`` leads the message, op prefix included (``conv2d: input``).
"""


class ShapeError(ValueError):
    """Operand shapes are incompatible with the operation's shape formula."""


class ConfigError(ValueError):
    """A layer spec, hyperparameter, or run configuration is invalid."""


class ContractError(ValueError):
    """An API precondition unrelated to shapes or configuration was violated."""


def _check_choice(name: str, value, choices) -> None:
    """Raise ``ConfigError`` unless ``value`` equals one of ``choices`` and has
    its type, so ``True`` is not the choice ``1``."""
    if not any(type(value) is type(c) and value == c for c in choices):
        raise ConfigError(f"{name} must be one of {tuple(choices)}, got {value!r}")


def _check_int(name: str, value, low: int | None = None) -> None:
    """Raise ``ConfigError`` unless ``value`` is an ``int`` (a ``bool`` is
    not) and, when ``low`` is given, at least ``low``."""
    if type(value) is not int or (low is not None and value < low):
        at_least = "" if low is None else f" >= {low}"
        raise ConfigError(f"{name} must be an integer{at_least}, got {value!r}")


def _check_4d(name: str, x) -> None:
    """Raise ``ShapeError`` unless tensor ``x`` is 4-d."""
    if x.data.ndim != 4:
        raise ShapeError(f"{name} must be 4-d, got shape {x.shape}")


def _check_spatial_vector(name: str, x) -> None:
    """Raise ``ShapeError`` unless tensor ``x`` is (n, c, 1, 1)."""
    if x.data.ndim != 4 or x.shape[2] != 1 or x.shape[3] != 1:
        raise ShapeError(f"{name}: expected (n, c, 1, 1), got {x.shape}")

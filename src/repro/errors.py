"""Exception hierarchy for the OAQ reproduction library, and the one
rule for numbers that come from outside it.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors such as ``TypeError``.

**The contract for outside input.**  A value that reaches the library
from outside -- a CLI flag, corpus JSON, a design grid, a fault plan --
and lies outside its field's domain fails as a
:class:`ConfigurationError` whose message names the field, never as a
raw ``TypeError``/``ValueError`` from deeper down, and never by being
accepted.  The type half of that decision is made here, once:

* an **integer** is a :class:`numbers.Integral` that is not a ``bool``
  (numpy ints pass; ``True`` is never a count);
* a **number** is a :class:`numbers.Real` that is not a ``bool`` and is
  finite (NaN compares False everywhere and would silently mean
  "never"; an infinity breaks sizing and normalisation);
* a **string** is a ``str``.

:func:`require_integer`, :func:`require_finite` and
:func:`require_text` apply the rule to one value and return it
unconverted; :func:`check_fields` applies it to every ``int``,
``float``, ``str`` and ``Optional[...]`` field a dataclass declares,
and checks that a field annotated with another dataclass (a nested
config, such as ``EvaluationParams.constellation``) holds an instance
of it.
Every config dataclass calls :func:`check_fields` first in its
``__post_init__`` and keeps only its own range checks after it; entry
points call the scalar checks on their arguments.  Messages read
``<field> must be an integer [bound], got <repr>`` and ``<field> must be
a finite number [bound], got <repr>``; a nested config's reads
``<field> must be a <Class>, got <repr>``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import sys
from typing import Callable, Optional, Tuple


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A model or scenario was configured with invalid parameters."""


class ModelError(ReproError):
    """A model is structurally ill-formed (e.g. an absorbing SAN marking
    where none is expected, or a non-ergodic chain passed to a
    steady-state solver)."""


class SolverError(ReproError):
    """A numerical solver failed to converge or produced an invalid
    result (e.g. a singular normal-equation matrix in the WLS
    estimator)."""


class StateSpaceExplosionError(ModelError):
    """Reachability-graph generation exceeded the configured state
    budget.

    Carries the ``limit`` that was exceeded and (when the generator can
    provide it) the ``marking`` whose interning tripped the limit, so
    the offending corner of the state space is visible without
    re-running under a debugger.
    """

    def __init__(self, limit: int, marking=None):
        message = f"state-space generation exceeded the limit of {limit} markings"
        if marking is not None:
            message += f" while interning marking {marking}"
        message += (
            "; raise max_states, declare exchangeable place groups and use "
            "state lumping (repro.san.lumping) to collapse symmetric "
            "states, or simplify the model"
        )
        super().__init__(message)
        self.limit = limit
        self.marking = marking


class CampaignError(ReproError):
    """A sharded campaign run failed in a way that voids its
    determinism or fault-tolerance contract (divergent re-execution
    digests, worker-pool restarts exhausted), as opposed to an
    evaluator error, which propagates as itself."""


class ProtocolError(ReproError):
    """The OAQ coordination protocol reached an inconsistent state
    (indicates a bug in a scenario definition, not in a satellite --
    genuine node failures are simulated as fail-silence, never as
    exceptions)."""


# ----------------------------------------------------------------------
# The rule for outside input (see the module docstring)
# ----------------------------------------------------------------------
def _integral(value: object) -> bool:
    # ``type(value) is int`` decides the common case (a bool's type is
    # ``bool``) without the ~10x slower ABC check.
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def _real(value: object) -> bool:
    return type(value) in (float, int) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    )


def require_integer(name: str, value: object, minimum: Optional[int] = None):
    """``value`` if it is an integer (and ``>= minimum`` when given),
    else a :class:`ConfigurationError` naming ``name``."""
    if not _integral(value) or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigurationError(f"{name} must be an integer{bound}, got {value!r}")
    return value


def require_finite(
    name: str, value: object, minimum: Optional[float] = None, *, strict: bool = False
):
    """``value`` if it is a finite number (and ``>= minimum``, or
    ``> minimum`` when ``strict``, when given), else a
    :class:`ConfigurationError` naming ``name``."""
    if (
        not _real(value)
        or not math.isfinite(value)
        or (minimum is not None and (value <= minimum if strict else value < minimum))
    ):
        bound = "" if minimum is None else f" {'>' if strict else '>='} {minimum}"
        raise ConfigurationError(
            f"{name} must be a finite number{bound}, got {value!r}"
        )
    return value


def require_text(name: str, value: object) -> str:
    """``value`` if it is a string, else a :class:`ConfigurationError`
    naming ``name``."""
    if not isinstance(value, str):
        raise ConfigurationError(f"{name} must be a string, got {value!r}")
    return value


_CHECKS = {"int": require_integer, "float": require_finite, "str": require_text}


def _require_instance(kind: type) -> Callable:
    def check(name: str, value: object):
        if not isinstance(value, kind):
            raise ConfigurationError(
                f"{name} must be a {kind.__name__}, got {value!r}"
            )
        return value

    return check


@functools.lru_cache(maxsize=None)
def _declared_fields(cls: type) -> Tuple[Tuple[str, Callable, bool], ...]:
    """``(name, check, optional)`` for each scalar or nested-config
    field ``cls`` declares, in declaration order; read once per class.
    A nested config is a dataclass named by the annotation in ``cls``'s
    module.  Other annotations (tuples, arrays) are left to the
    class."""
    namespace = vars(sys.modules[cls.__module__])
    specs = []
    for spec in dataclasses.fields(cls):
        kind = spec.type
        if not isinstance(kind, str):
            kind = getattr(kind, "__name__", "")
        optional = kind.startswith("Optional[") and kind.endswith("]")
        if optional:
            kind = kind[len("Optional[") : -1]
        check = _CHECKS.get(kind)
        if check is None:
            nested = namespace.get(kind)
            if isinstance(nested, type) and dataclasses.is_dataclass(nested):
                check = _require_instance(nested)
        if check is not None:
            specs.append((spec.name, check, optional))
    return tuple(specs)


def check_fields(instance: object) -> None:
    """Apply the rule to every declared scalar and nested-config field
    of the dataclass ``instance``: a :class:`ConfigurationError` naming
    the first field whose value is not of its declared kind (``None``
    passes only an ``Optional[...]`` field)."""
    for name, check, optional in _declared_fields(type(instance)):
        value = getattr(instance, name)
        if value is not None or not optional:
            check(name, value)

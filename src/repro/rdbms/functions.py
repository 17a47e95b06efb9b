"""Scalar (UDF) and aggregate function registries.

Sinew's key-extraction functions (``extract_key_text`` & friends, paper
section 3.2.2) are registered here exactly like PostgreSQL user-defined
functions.  Two properties of the registry matter to the reproduction:

* the planner cannot estimate selectivity through a UDF, so predicates
  containing one get the fixed default row estimate (Table 2's "200 rows
  out of 10 million");
* UDF invocations are counted on the shared cost counters, making the
  virtual-column extraction overhead of Appendix B measurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from .cost import CostCounters
from .errors import CatalogError, ExecutionError
from .types import SqlType


@dataclass(eq=False)
class ScalarFunction:
    """A registered scalar function.

    ``counts_as_udf`` marks user-registered functions whose calls are
    tallied on the cost counters; built-ins (``abs``, ``length``...) are
    exempt to keep the counter meaningful as "reservoir extraction work".

    ``volatile`` declares that repeated calls with the same arguments may
    return different values (PostgreSQL's VOLATILE).  The planner refuses
    to push volatile calls into parallel morsel workers, where evaluation
    order and per-worker state would make results nondeterministic.

    ``specializer`` is the one hook through which a function can offer the
    expression compiler something better than ``fn(*args)`` per row.  It
    is a ``(family, tag)`` pair and applies to calls of the shape
    ``f(value, literal, ...)``.  Per execution the compiler hands
    ``family.bind([(tag, literals), ...])`` the calls that share a family
    and a first argument, and evaluates them through what it returns:
    ``.one(value)`` for one call on one row, ``.columns(values)`` for all
    calls on a batch (one result list per call, aligned with ``values``).
    A batch stage uses ``.columns``, ahead of its row loop, for the calls
    whose value is a plain column and that every row reaches; the row
    form, a lazily evaluated ``COALESCE``/``IN`` arm and a computed value
    use ``.one``.  Results and ``udf_calls`` must be those of calling
    ``fn``; calls of any other shape still go through ``fn``.  The same
    hook computes the keys of an expression index on such a call
    (:class:`~repro.rdbms.storage.IndexExpression`), which is why a
    function is hashed by identity: an index on one registration is not
    an index on a later one under the same name.
    """

    name: str
    fn: Callable[..., Any]
    return_type: SqlType
    counts_as_udf: bool = False
    counters: CostCounters | None = None
    volatile: bool = False
    specializer: tuple[Any, str] | None = None


class AggregateFunction:
    """Streaming aggregate: ``init() -> state``, ``step``, ``final``.

    ``merge`` combines two partial states into one (must not mutate its
    second argument); aggregates without a merge cannot be computed as
    per-worker partials, so the planner keeps them on the serial path.
    """

    def __init__(
        self,
        name: str,
        init: Callable[[], Any],
        step: Callable[[Any, Any], Any],
        final: Callable[[Any], Any],
        skip_nulls: bool = True,
        merge: Callable[[Any, Any], Any] | None = None,
    ):
        self.name = name
        self.init = init
        self.step = step
        self.final = final
        self.skip_nulls = skip_nulls
        self.merge = merge


def _sum_step(state: Any, value: Any) -> Any:
    return value if state is None else state + value


def _min_step(state: Any, value: Any) -> Any:
    return value if state is None or value < state else state


def _max_step(state: Any, value: Any) -> Any:
    return value if state is None or value > state else state


def _avg_init() -> list:
    return [0, 0]


def _avg_step(state: list, value: Any) -> list:
    state[0] += value
    state[1] += 1
    return state


def _avg_final(state: list) -> float | None:
    return None if state[1] == 0 else state[0] / state[1]


def _sum_merge(left: Any, right: Any) -> Any:
    if left is None:
        return right
    if right is None:
        return left
    return left + right


def _min_merge(left: Any, right: Any) -> Any:
    if left is None:
        return right
    if right is None:
        return left
    return right if right < left else left


def _max_merge(left: Any, right: Any) -> Any:
    if left is None:
        return right
    if right is None:
        return left
    return right if right > left else left


def _avg_merge(left: list, right: list) -> list:
    return [left[0] + right[0], left[1] + right[1]]


_BUILTIN_AGGREGATES = {
    "count": AggregateFunction(
        "count",
        init=lambda: 0,
        step=lambda state, _value: state + 1,
        final=lambda state: state,
        merge=lambda left, right: left + right,
    ),
    "sum": AggregateFunction("sum", lambda: None, _sum_step, lambda s: s, merge=_sum_merge),
    "min": AggregateFunction("min", lambda: None, _min_step, lambda s: s, merge=_min_merge),
    "max": AggregateFunction("max", lambda: None, _max_step, lambda s: s, merge=_max_merge),
    "avg": AggregateFunction("avg", _avg_init, _avg_step, _avg_final, merge=_avg_merge),
}


def _builtin_scalars() -> dict[str, ScalarFunction]:
    def length(value: Any) -> int | None:
        if value is None:
            return None
        if isinstance(value, (list, tuple)):
            return len(value)
        return len(str(value))

    def absolute(value: Any) -> Any:
        return None if value is None else abs(value)

    def lower(value: Any) -> str | None:
        return None if value is None else str(value).lower()

    def upper(value: Any) -> str | None:
        return None if value is None else str(value).upper()

    def sqrt(value: Any) -> float | None:
        if value is None:
            return None
        if value < 0:
            raise ExecutionError("sqrt of a negative number")
        return math.sqrt(value)

    def round_fn(value: Any, digits: Any = 0) -> Any:
        if value is None:
            return None
        return round(value, int(digits or 0))

    def array_length(value: Any) -> int | None:
        if value is None:
            return None
        if not isinstance(value, (list, tuple)):
            raise ExecutionError("array_length expects an array")
        return len(value)

    return {
        "length": ScalarFunction("length", length, SqlType.INTEGER),
        "abs": ScalarFunction("abs", absolute, SqlType.REAL),
        "lower": ScalarFunction("lower", lower, SqlType.TEXT),
        "upper": ScalarFunction("upper", upper, SqlType.TEXT),
        "sqrt": ScalarFunction("sqrt", sqrt, SqlType.REAL),
        "round": ScalarFunction("round", round_fn, SqlType.REAL),
        "array_length": ScalarFunction("array_length", array_length, SqlType.INTEGER),
    }


class FunctionRegistry:
    """Name -> implementation map for scalar and aggregate functions."""

    def __init__(self, counters: CostCounters | None = None):
        self.counters = counters
        self._scalars: dict[str, ScalarFunction] = _builtin_scalars()
        self._aggregates: dict[str, AggregateFunction] = dict(_BUILTIN_AGGREGATES)
        self._query_listeners: list[Any] = []

    # -- query lifecycle -----------------------------------------------------

    def register_query_listener(self, listener: Any) -> None:
        """Subscribe to query begin/end notifications.

        Listeners expose ``begin_query(execution_context)`` and
        ``end_query(execution_context)``; the reservoir extractor uses this
        to scope its decoded-header cache to one query without the engine
        knowing anything about Sinew's layers.
        """
        if listener not in self._query_listeners:
            self._query_listeners.append(listener)

    def begin_query(self, execution_context: Any) -> None:
        for listener in self._query_listeners:
            listener.begin_query(execution_context)

    def end_query(self, execution_context: Any) -> None:
        for listener in self._query_listeners:
            listener.end_query(execution_context)

    # -- scalar -------------------------------------------------------------

    def register_scalar(
        self,
        name: str,
        fn: Callable[..., Any],
        return_type: SqlType,
        counts_as_udf: bool = True,
        volatile: bool = False,
        specializer: tuple[Any, str] | None = None,
    ) -> ScalarFunction:
        """Register a user-defined scalar function (CREATE FUNCTION)."""
        key = name.lower()
        implementation = ScalarFunction(
            key,
            fn,
            return_type,
            counts_as_udf=counts_as_udf,
            counters=self.counters,
            volatile=volatile,
            specializer=specializer,
        )
        self._scalars[key] = implementation
        return implementation

    def scalar(self, name: str) -> ScalarFunction:
        key = name.lower()
        if key not in self._scalars:
            raise CatalogError(f"no such function: {name}()")
        return self._scalars[key]

    def has_scalar(self, name: str) -> bool:
        return name.lower() in self._scalars

    # -- aggregate ----------------------------------------------------------

    def aggregate(self, name: str) -> AggregateFunction:
        key = name.lower()
        if key not in self._aggregates:
            raise CatalogError(f"no such aggregate: {name}()")
        return self._aggregates[key]

    def is_aggregate(self, name: str) -> bool:
        return name.lower() in self._aggregates

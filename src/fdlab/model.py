"""Model container: variables, posted constraints, branch order, objective.
A model only describes the problem: its store, its propagators and their
subscriptions.  Each solve works on a fork of the store and builds its own
``Engine`` over the propagators, so it leaves the model unchanged.

The model also keeps the declared constraint counts for both sum-constraint
accounting conventions (native sum-equals vs. the decomposed less-equal /
greater-equal pair), independently of which convention is actually posted.
"""

from __future__ import annotations

from .domain import BOUNDS_CHANGED, DOMAIN_CHANGED, EVENTS, FIXED_FALSE, FIXED_TRUE
from .domain import INSTANTIATED
from .domain import VariableStore
from .propagate import DELTAS

BOOL_NATIVE = "native"
BOOL_INT = "int"
SUM_NATIVE = "native"
SUM_DECOMPOSED = "decomposed"

#: Largest number of values an integer domain may span.  A domain is a
#: bitset over its span, so a wide span is a large allocation; the catalogued
#: models stay below 200 values.
MAX_DOMAIN_SPAN = 1 << 16


class ModelError(ValueError):
    """Invalid model construction or posting."""


class Model:
    """The problem: variables in ``store``, propagators in ``props`` and
    their subscriptions in ``subs``, branch order and objective.  Each solve
    builds its own ``Engine`` over these and leaves them unchanged.

    ``subs`` holds one wake table per event, ``{event: {variable: [pid,
    ...]}}``: the table of an event lists, per variable, the propagators
    that it wakes.  An integer's events are the three event classes; a
    Boolean's are its two fixings, ``FIXED_FALSE`` and ``FIXED_TRUE``, so a
    propagator that can prune on one value only is not woken by the other.
    Under the key ``DELTAS`` it also holds the delta table, ``{variable:
    [propagator, ...]}``: the propagators that take deltas
    (``Propagator.takes_deltas``), filed under each integer variable they
    subscribe to.  It stays empty until a propagator subscribes."""

    def __init__(self, bool_mode=BOOL_NATIVE, sum_mode=SUM_NATIVE):
        if bool_mode not in (BOOL_NATIVE, BOOL_INT):
            raise ModelError(f"unknown bool mode {bool_mode!r}")
        if sum_mode not in (SUM_NATIVE, SUM_DECOMPOSED):
            raise ModelError(f"unknown sum mode {sum_mode!r}")
        self.bool_mode = bool_mode
        self.sum_mode = sum_mode
        self.store = VariableStore()
        self.props = []
        self.subs = {}  # event -> {variable -> pids it wakes}
        self.decision_vars = []
        self.objective = None
        self.count_native = 0
        self.count_decomposed = 0

    def new_int_var(self, lo, hi, decision=False):
        if lo > hi:
            raise ModelError(f"empty initial domain [{lo}..{hi}]")
        if hi - lo + 1 > MAX_DOMAIN_SPAN:
            raise ModelError(
                f"domain [{lo}..{hi}] spans more than {MAX_DOMAIN_SPAN} values"
            )
        var = self.store.new_int_var(lo, hi)
        if decision:
            self.decision_vars.append(var)
        return var

    def new_bool_var(self, decision=False):
        var = self.store.new_bool_var()
        if decision:
            self.decision_vars.append(var)
        return var

    def new_01_var(self, decision=False):
        """A Boolean-semantics variable in the model's chosen representation."""
        if self.bool_mode == BOOL_NATIVE:
            return self.new_bool_var(decision)
        return self.new_int_var(0, 1, decision)

    def add(self, prop):
        """Post a propagator and file its subscriptions; returns its pid.

        An integer's (variable, event class) subscription is filed under
        that class and every stronger one.  A Boolean's subscription to
        ``FIXED_FALSE`` or ``FIXED_TRUE`` is filed under that value alone;
        any other, of whatever event class, under both values.  A
        propagator that takes deltas is also filed in the delta table under
        each of its integer variables.
        """
        pid = len(self.props)
        self.props.append(prop)
        subs = self.subs
        # Read with a default: a duck-typed propagator need not declare it.
        takes_deltas = getattr(prop, "takes_deltas", False)
        for var, klass in prop.subscriptions():
            if not subs:
                subs.update((k, {}) for k in (*EVENTS, DELTAS))
            if var < 0:
                if klass != FIXED_TRUE:
                    subs[FIXED_FALSE].setdefault(var, []).append(pid)
                if klass != FIXED_FALSE:
                    subs[FIXED_TRUE].setdefault(var, []).append(pid)
                continue
            subs[INSTANTIATED].setdefault(var, []).append(pid)
            if takes_deltas:
                subs[DELTAS].setdefault(var, []).append(prop)
            if klass != INSTANTIATED:
                subs[BOUNDS_CHANGED].setdefault(var, []).append(pid)
                if klass == DOMAIN_CHANGED:
                    subs[DOMAIN_CHANGED].setdefault(var, []).append(pid)
        return pid

    def count_constraint(self, native=1, decomposed=1):
        self.count_native += native
        self.count_decomposed += decomposed

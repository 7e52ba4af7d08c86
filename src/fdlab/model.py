"""Model container: variables, posted constraints, branch order, objective.
A model only describes the problem: its store and its propagators.  Each
solve builds its own ``Engine``, a store that copies the model's domains
and files the propagators' subscriptions as they join, so it leaves the
model unchanged.

A model's size is what it posted: its variables, its propagators and the
unary constraints it posted as domain pruning (``unaries``), which have no
propagator.  Its constraint count is ``len(props) + unaries``, so the model
built in each sum mode counts its sums by the convention it posts.
"""

from __future__ import annotations

from .domain import ModelError, VariableStore

BOOL_NATIVE = "native"
BOOL_INT = "int"
SUM_NATIVE = "native"
SUM_DECOMPOSED = "decomposed"


class Model:
    """The problem: variables in ``store``, propagators in ``props``, branch
    order and objective.  Each solve builds its own ``Engine`` from these
    and leaves them unchanged.  The store checks each new variable and
    raises ``ModelError``; the model only records which are decisions."""

    def __init__(self, bool_mode=BOOL_NATIVE, sum_mode=SUM_NATIVE):
        if bool_mode not in (BOOL_NATIVE, BOOL_INT):
            raise ModelError(f"unknown bool mode {bool_mode!r}")
        if sum_mode not in (SUM_NATIVE, SUM_DECOMPOSED):
            raise ModelError(f"unknown sum mode {sum_mode!r}")
        self.bool_mode = bool_mode
        self.sum_mode = sum_mode
        self.store = VariableStore()
        self.props = []
        self.decision_vars = []
        self.objective = None
        self.unaries = 0  # unary constraints posted as domain pruning

    def new_int_var(self, lo, hi, decision=False):
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
        """Post a propagator; returns its pid."""
        self.props.append(prop)
        return len(self.props) - 1

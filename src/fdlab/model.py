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

from operator import index

from .domain import VariableStore

BOOL_NATIVE = "native"
BOOL_INT = "int"
SUM_NATIVE = "native"
SUM_DECOMPOSED = "decomposed"

#: Largest number of values an integer domain may span.  A domain is a
#: bitset over its span, so a wide span is a large allocation; the catalogued
#: models stay below 200 values.
MAX_DOMAIN_SPAN = 1 << 16

#: Largest modelled region a model may hold, in the 64-bit words behind
#: ``VariableStore.region_bytes``: what one copy snapshot holds.  A model
#: that would pass it is refused as it grows, before the variable that
#: would pass it is made, instead of exhausting memory.  The largest
#: catalogued instance, golfers:2,10,4+ext, models 156,800 words.
MAX_REGION_WORDS = 1 << 20


class ModelError(ValueError):
    """Invalid model construction or posting."""


class Model:
    """The problem: variables in ``store``, propagators in ``props``, branch
    order and objective.  Each solve builds its own ``Engine`` from these
    and leaves them unchanged."""

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
        try:
            lo, hi = index(lo), index(hi)
        except TypeError:
            raise ModelError(f"domain bounds [{lo!r}..{hi!r}] must be integers") from None
        if lo > hi:
            raise ModelError(f"empty initial domain [{lo}..{hi}]")
        if hi - lo + 1 > MAX_DOMAIN_SPAN:
            raise ModelError(
                f"domain [{lo}..{hi}] spans more than {MAX_DOMAIN_SPAN} values"
            )
        self._reserve(-(-(hi - lo + 1) // 64))
        var = self.store.new_int_var(lo, hi)
        if decision:
            self.decision_vars.append(var)
        return var

    def new_bool_var(self, decision=False):
        self._reserve(1)
        var = self.store.new_bool_var()
        if decision:
            self.decision_vars.append(var)
        return var

    def new_bool_vars(self, n):
        """Add ``n`` Booleans that no constraint names (the padding of an
        extended model); returns their ids."""
        try:
            n = index(n)
        except TypeError:
            raise ModelError(f"Boolean count {n!r} must be an integer") from None
        if n < 0:
            raise ModelError(f"Boolean count {n} is negative")
        self._reserve(n)
        return self.store.new_bool_vars(n)

    def _reserve(self, words):
        """Refuse variables whose ``words`` would take the modelled region
        (``region_bytes`` in words) past ``MAX_REGION_WORDS``."""
        if self.store._region_words + words > MAX_REGION_WORDS:
            raise ModelError(
                f"model exceeds {MAX_REGION_WORDS} words of modelled domains"
            )

    def new_01_var(self, decision=False):
        """A Boolean-semantics variable in the model's chosen representation."""
        if self.bool_mode == BOOL_NATIVE:
            return self.new_bool_var(decision)
        return self.new_int_var(0, 1, decision)

    def add(self, prop):
        """Post a propagator; returns its pid."""
        self.props.append(prop)
        return len(self.props) - 1

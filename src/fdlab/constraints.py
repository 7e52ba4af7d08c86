"""Constraint catalog: linear sums (with a kernel for the three-variable
difference x = y + z + k), alldifferent, Boolean conjunction, specialised
Boolean sums, ordering and lex constraints.  The unary constraints x != c
and x = c have no propagator: posting one narrows the model's domain.

The two sum propagators hold ``sum rel c`` as an interval,
cmin <= sum <= cmax: ``=`` closes both sides, and ``<=`` or ``>=`` leaves
one side open, at a bound no sum reaches.  So one path fails, prunes and
subsumes for all three relations.

Posting functions return None; what a model posted is its size.  Which
propagators get posted follows the model's sum and Boolean modes: the
native sum mode posts one propagator per sum, and the decomposed mode posts
a sum-equals, or a Boolean sum a model class declares as pair-counted, as a
less-equal plus a greater-equal pair.  The pruning reached at the fixpoint
is identical in all modes.
"""

from __future__ import annotations

from functools import partial
from operator import index, itemgetter

from .domain import ASSIGN, BOUNDS_CHANGED, FAILED, INSTANTIATED, MAX, MIN, REMOVE
from .domain import FIXED_FALSE, FIXED_TRUE, UNKNOWN, is_int_var
from .model import SUM_DECOMPOSED, ModelError
from .propagate import AT_FIXPOINT, PROP_FAILED, SUBSUMED, Propagator
from .propagate import PRIORITY_CHEAP, PRIORITY_GLOBAL, PRIORITY_LINEAR

EQ = "eq"
LEQ = "leq"
GEQ = "geq"

INT64_MAX = 2**63 - 1

#: The open side of a ``<=`` or ``>=`` sum's interval: no sum reaches it,
#: as the overflow contract of ``_check_terms`` bounds a linear sum by
#: ``INT64_MAX`` and a Boolean count is at most its length.
_OPEN = INT64_MAX + 1

#: (min, max) of a Boolean by its cell's state: 0, 1 or ``UNKNOWN`` (2).
_BOOL_BOUNDS = ((0, 0), (1, 1), (0, 1))

#: The Boolean event a sum of each relation subscribes to.
_SUM_EVENT = {LEQ: FIXED_TRUE, GEQ: FIXED_FALSE, EQ: INSTANTIATED}


class PostError(ModelError):
    """Rejected constraint posting."""


def _interval(rel, c):
    """(cmin, cmax) such that ``sum rel c`` reads cmin <= sum <= cmax."""
    return (-_OPEN if rel == LEQ else c, _OPEN if rel == GEQ else c)


class LinearProp(Propagator):
    """Bounds-consistent propagation of cmin <= sum(coeff * var) <= cmax,
    the interval that ``_interval`` reads ``sum rel c`` as.

    Only integer variables participate (Boolean sums route here after
    being remodelled as {0..1} integers).  The terms are split by sign once,
    at construction, into ``pos`` and ``neg`` (the latter with negated,
    positive coefficients).  A pass sweeps ``_lo``/``_hi`` once for the
    least and the greatest sum, fails or subsumes on those two, and narrows
    each term into the room they leave.  A new bound lies between the
    term's current bounds, so a narrowing keeps the opposite bound and
    cannot fail; a sum left with no room shows in the next pass's sums.
    """

    __slots__ = ("terms", "cmin", "cmax", "pos", "neg")
    priority = PRIORITY_LINEAR

    def __init__(self, terms, rel, c):
        self.terms = terms
        self.cmin, self.cmax = _interval(rel, c)
        self.pos = [(a, v) for a, v in terms if a > 0]
        self.neg = [(-a, v) for a, v in terms if a < 0]

    def subscriptions(self):
        for _, var in self.terms:
            yield var, BOUNDS_CHANGED

    def propagate(self, s):
        lo = s._lo
        hi = s._hi
        pos = self.pos
        neg = self.neg
        cmin, cmax = self.cmin, self.cmax
        while True:
            lb = ub = 0
            for a, v in pos:
                lb += a * lo[v]
                ub += a * hi[v]
            for a, v in neg:
                lb -= a * hi[v]
                ub -= a * lo[v]
            if lb > cmax or ub < cmin:
                return PROP_FAILED
            if cmin <= lb and ub <= cmax:
                return SUBSUMED
            # A term may rise ``up`` above its least contribution and fall
            # ``down`` below its greatest.
            up = cmax - lb
            down = ub - cmin
            changed = False
            for a, v in pos:
                bound = lo[v] + up // a
                if bound < hi[v]:
                    s.narrow(v, MAX, bound)
                    changed = True
                bound = hi[v] - down // a
                if bound > lo[v]:
                    s.narrow(v, MIN, bound)
                    changed = True
            for a, v in neg:
                bound = hi[v] - up // a
                if bound > lo[v]:
                    s.narrow(v, MIN, bound)
                    changed = True
                bound = lo[v] + down // a
                if bound < hi[v]:
                    s.narrow(v, MAX, bound)
                    changed = True
            if not changed:
                return AT_FIXPOINT


class DiffProp(Propagator):
    """Bounds-consistent x = y + z + k over three distinct integer
    variables: the difference constraints of queens and golomb.

    A run keeps the six bounds in locals, read once from ``_lo``/``_hi``,
    and applies the six bound rules, narrowing a variable only when its
    bound would move.  A bound that would cross the opposite one fails
    without a ``narrow`` call; every other ``narrow`` succeeds, because the
    opposite bound stays in the domain.  After narrowing, only the moved
    bound is read back (holes can move it further).  The rules run in the
    order x, y, z, each reading the bounds the ones before it left.  A
    bound of y or z that lands exactly where its rule put it keeps every
    rule before it true, so a pass repeats only when a hole moved such a
    bound further; a hole that moves x is already seen by the y and z
    rules.  That takes three distinct variables, which ``post_linear``
    guarantees by merging repeated terms.  It subsumes exactly when all
    three variables are fixed, as ``LinearProp`` does for a closed
    interval.
    """

    __slots__ = ("x", "y", "z", "k")
    priority = PRIORITY_LINEAR

    def __init__(self, x, y, z, k):
        self.x = x
        self.y = y
        self.z = z
        self.k = k

    def subscriptions(self):
        yield self.x, BOUNDS_CHANGED
        yield self.y, BOUNDS_CHANGED
        yield self.z, BOUNDS_CHANGED

    def propagate(self, s):
        lo = s._lo
        hi = s._hi
        x, y, z, k = self.x, self.y, self.z, self.k
        xl, xh = lo[x], hi[x]
        yl, yh = lo[y], hi[y]
        zl, zh = lo[z], hi[z]
        while True:
            again = False
            # x = y + z + k
            b = yl + zl + k
            if b > xl:
                if b > xh:
                    return PROP_FAILED
                s.narrow(x, MIN, b)
                xl = lo[x]
            b = yh + zh + k
            if b < xh:
                if b < xl:
                    return PROP_FAILED
                s.narrow(x, MAX, b)
                xh = hi[x]
            # y = x - z - k
            b = xl - zh - k
            if b > yl:
                if b > yh:
                    return PROP_FAILED
                s.narrow(y, MIN, b)
                yl = lo[y]
                if yl != b:
                    again = True
            b = xh - zl - k
            if b < yh:
                if b < yl:
                    return PROP_FAILED
                s.narrow(y, MAX, b)
                yh = hi[y]
                if yh != b:
                    again = True
            # z = x - y - k
            b = xl - yh - k
            if b > zl:
                if b > zh:
                    return PROP_FAILED
                s.narrow(z, MIN, b)
                zl = lo[z]
                if zl != b:
                    again = True
            b = xh - yl - k
            if b < zh:
                if b < zl:
                    return PROP_FAILED
                s.narrow(z, MAX, b)
                zh = hi[z]
                if zh != b:
                    again = True
            if not again:
                break
        if xl == xh and yl == yh and zl == zh:
            return SUBSUMED
        return AT_FIXPOINT


class BoolSumProp(Propagator):
    """Counter-based sum over Boolean variables, held as an interval as in
    ``LinearProp``.  A run gathers the variables' three-state cells
    (``UNKNOWN``, 0 or 1) from ``_bstate`` in one C-level call and counts
    the true ones, the least sum, and the unknown ones, which added give the
    greatest.  When one of the two meets the side it must not cross, it
    fixes every unknown cell and the sum is entailed.

    When the cells form an increasing arithmetic progression, one cell
    included, the call is a single slice of the array, which copies them
    as one block; other cells are gathered one index at a time into a
    tuple.

    A cell turning false leaves the true count alone, so a ``<=`` sum
    subscribes to ``FIXED_TRUE`` only; a cell turning true leaves the
    count of possible trues alone, so a ``>=`` sum subscribes to
    ``FIXED_FALSE`` only.  A ``=`` sum subscribes to both.

    Cells turning the other value can still entail a one-sided sum, so an
    entailed sum reports ``SUBSUMED`` only where its own events lead: a
    ``<=`` sum when its true count meets ``cmax``, a ``>=`` sum when its
    count of possible trues meets ``cmin``, and a sum that every
    assignment satisfies (``_holds``) at once.  Otherwise it returns
    ``AT_FIXPOINT`` and stays idle, so it sleeps exactly when a run would
    report ``SUBSUMED``, whatever order the cells were fixed in."""

    __slots__ = ("vars", "cmin", "cmax", "_event", "_holds", "_read_cells")
    priority = PRIORITY_LINEAR

    def __init__(self, vars, rel, c):
        self.vars = list(vars)
        self.cmin, self.cmax = _interval(rel, c)
        self._event = _SUM_EVENT[rel]
        self._holds = self.cmin <= 0 and len(self.vars) <= self.cmax
        cells = [~v for v in self.vars]
        first, last = cells[0], cells[-1]
        step = cells[1] - first if len(cells) > 1 else 1
        # A single cell must slice too: itemgetter of one index returns the
        # bare cell, which has no ``count``.
        if step > 0 and cells == list(range(first, last + 1, step)):
            cells = [slice(first, last + 1, step)]
        self._read_cells = itemgetter(*cells)

    def subscriptions(self):
        for var in self.vars:
            yield var, self._event

    def propagate(self, s):
        states = self._read_cells(s._bstate)
        n_true = states.count(1)
        n_unknown = states.count(UNKNOWN)
        ub = n_true + n_unknown
        cmin, cmax = self.cmin, self.cmax
        if n_true > cmax or ub < cmin:
            return PROP_FAILED
        if cmin <= n_true and ub <= cmax:
            if n_true == cmax or ub == cmin or self._holds:
                return SUBSUMED
            return AT_FIXPOINT
        # Not entailed, so some cell is unknown; fixing one cannot fail.
        if n_true == cmax:
            value = 0
        elif ub == cmin:
            value = 1
        else:
            return AT_FIXPOINT
        for v, st in zip(self.vars, states):
            if st == UNKNOWN:
                s.narrow(v, ASSIGN, value)
        return SUBSUMED


class AllDiffValueProp(Propagator):
    """Value-consistent alldifferent: an instantiated value is removed
    from every other domain.

    It takes deltas.  A run works its list in the store's ``deltas`` as a
    worklist: it pops an instantiated variable and removes that one value
    from every other variable, and a removal that instantiates another
    variable appends it to the same list through the store's ``narrow``.
    The store seeds the list with the variables fixed when it joins the
    engine, and the engine empties it in ``clear``, so the list always
    holds every instantiated variable whose value is not yet removed, and
    an empty list means there is nothing to do.  Two variables fixed to
    one value fail at the removal.
    """

    __slots__ = ("vars",)
    priority = PRIORITY_GLOBAL
    takes_deltas = True

    def __init__(self, vars):
        self.vars = list(vars)

    def subscriptions(self):
        for var in self.vars:
            yield var, INSTANTIATED

    def propagate(self, s):
        vars = self.vars
        lo = s._lo
        hi = s._hi
        base = s._base
        mask = s._mask
        todo = s.deltas[self]
        while todo:
            x = todo.pop()
            val = lo[x]
            for v in vars:
                off = val - base[v]
                if off >= 0 and (mask[v] >> off) & 1 and v != x:
                    if s.narrow(v, REMOVE, val) is FAILED:
                        return PROP_FAILED
        for v in vars:
            if lo[v] != hi[v]:
                return AT_FIXPOINT
        return SUBSUMED


class LeProp(Propagator):
    """x <= y (or x < y) by bounds, over integer variables.

    A run reads the bounds straight from ``_lo``/``_hi`` and narrows a
    side only when its bound would move; a bound that would cross the
    opposite one fails without a ``narrow`` call.  One pass reaches the
    fixpoint: lowering max(x) leaves min(x) alone, and raising min(y)
    leaves max(y) alone.
    """

    __slots__ = ("x", "y", "gap")
    priority = PRIORITY_CHEAP

    def __init__(self, x, y, strict=False):
        self.x = x
        self.y = y
        self.gap = 1 if strict else 0

    def subscriptions(self):
        yield self.x, BOUNDS_CHANGED
        yield self.y, BOUNDS_CHANGED

    def propagate(self, s):
        lo = s._lo
        hi = s._hi
        x, y, gap = self.x, self.y, self.gap
        xl, xh = lo[x], hi[x]
        yl = lo[y]
        b = hi[y] - gap
        if b < xh:
            if b < xl:
                return PROP_FAILED
            s.narrow(x, MAX, b)
            xh = hi[x]
        b = xl + gap
        if b > yl:
            # hi[y] is read again: with x == y the narrowing above moved it.
            if b > hi[y]:
                return PROP_FAILED
            s.narrow(y, MIN, b)
            yl = lo[y]
        if xh + gap <= yl:
            return SUBSUMED
        return AT_FIXPOINT


class BoolAndProp(Propagator):
    """z = x and y, propagated in all directions.

    All three variables have one kind.  A run reads each variable's
    three-state value (``UNKNOWN``, 0 or 1) once, straight from the store:
    the Boolean cell ``_bstate[~var]``, or for a {0..1} integer ``lo[var]``
    when ``lo[var] == hi[var]``.  It then settles the truth table in one
    pass and narrows only variables that were unknown.
    """

    __slots__ = ("z", "x", "y")
    priority = PRIORITY_CHEAP

    def __init__(self, z, x, y):
        self.z = z
        self.x = x
        self.y = y

    def subscriptions(self):
        yield self.z, INSTANTIATED
        yield self.x, INSTANTIATED
        yield self.y, INSTANTIATED

    def propagate(self, s):
        z, x, y = self.z, self.x, self.y
        if z < 0:
            bstate = s._bstate
            zs = bstate[~z]
            xs = bstate[~x]
            ys = bstate[~y]
        else:
            lo = s._lo
            hi = s._hi
            zs = lo[z] if lo[z] == hi[z] else UNKNOWN
            xs = lo[x] if lo[x] == hi[x] else UNKNOWN
            ys = lo[y] if lo[y] == hi[y] else UNKNOWN
        if xs == 1 and ys == 1:
            if zs == 0:
                return PROP_FAILED
            if zs == UNKNOWN and s.narrow(z, ASSIGN, 1) is FAILED:
                return PROP_FAILED
            return SUBSUMED
        if xs == 0 or ys == 0:
            if zs == 1:
                return PROP_FAILED
            if zs == UNKNOWN and s.narrow(z, ASSIGN, 0) is FAILED:
                return PROP_FAILED
            return SUBSUMED
        # x and y are each unknown or 1, and not both 1.
        if zs == 1:
            if xs == UNKNOWN and s.narrow(x, ASSIGN, 1) is FAILED:
                return PROP_FAILED
            if ys == UNKNOWN and s.narrow(y, ASSIGN, 1) is FAILED:
                return PROP_FAILED
            return SUBSUMED
        if zs == 0:
            if xs == 1:
                if s.narrow(y, ASSIGN, 0) is FAILED:
                    return PROP_FAILED
                return SUBSUMED
            if ys == 1:
                if s.narrow(x, ASSIGN, 0) is FAILED:
                    return PROP_FAILED
                return SUBSUMED
            if x == y:  # z = x and x: a false z makes the unknown x false
                s.narrow(x, ASSIGN, 0)
                return SUBSUMED
        return AT_FIXPOINT


class LexLeqProp(Propagator):
    """xs <=lex ys over native Booleans, filtered with the two-pointer
    scheme: advance over the ground-equal prefix to the first open position
    a, then enforce xs[a] <= ys[a], strictly when the tail after a cannot
    satisfy the remainder.  The tail's first position j with min(xs[j]) !=
    max(ys[j]) decides that (satisfiable when min(xs[j]) < max(ys[j])); a
    tail that can only be equal is satisfiable.  ``IntLexLeqProp`` is the
    same scheme over integers.

    A run reads only cells in ``_bstate``, each position it visits once:
    a cell is 0, 1 or ``UNKNOWN``, and ``_BOOL_BOUNDS`` turns it into the
    position's bounds.  It narrows a side only when its bound would move,
    and a bound that would cross the opposite one fails without a
    ``narrow`` call.

    Only an x turning true or a y turning false can make it prune, but an x
    turning false or a y turning true can entail it at its first open
    position.  It subscribes to both values of every variable, so it
    sleeps exactly when a run would report ``SUBSUMED``, whatever order
    the cells were fixed in.
    """

    __slots__ = ("xs", "ys", "_cx", "_cy")
    priority = PRIORITY_GLOBAL

    def __init__(self, xs, ys):
        self.xs = list(xs)
        self.ys = list(ys)
        self._cx = [~v for v in self.xs]
        self._cy = [~v for v in self.ys]

    def subscriptions(self):
        for var in dict.fromkeys(self.xs + self.ys):
            yield var, INSTANTIATED

    def propagate(self, s):
        bstate = s._bstate
        xs, ys = self.xs, self.ys
        cx, cy = self._cx, self._cy
        n = len(xs)
        a = 0
        while True:
            while a < n:
                bx, by = bstate[cx[a]], bstate[cy[a]]
                if bx != by or bx == UNKNOWN:
                    break
                a += 1
            if a == n:
                return SUBSUMED
            gap = 0
            for j in range(a + 1, n):
                # A cell's min is 1 only when true, its max 0 only when false.
                xl_j = bstate[cx[j]] == 1
                yh_j = bstate[cy[j]] != 0
                if xl_j != yh_j:
                    gap = 0 if xl_j < yh_j else 1
                    break
            x, y = xs[a], ys[a]
            xl, xh = _BOOL_BOUNDS[bx]
            yl, yh = _BOOL_BOUNDS[by]
            b = yh - gap
            if b < xh:
                if b < xl:
                    return PROP_FAILED
                s.narrow(x, MAX, b)
                xh = b
                if y == x:
                    yh = xh
            b = xl + gap
            if b > yl:
                if b > yh:
                    return PROP_FAILED
                s.narrow(y, MIN, b)
                yl = b
                if x == y:
                    xl = yl
            if not xl == xh == yl == yh:
                break
            a += 1
        return SUBSUMED if xh < yl else AT_FIXPOINT


class IntLexLeqProp(Propagator):
    """xs <=lex ys over integers, ``LexLeqProp``'s two-pointer
    scheme read from ``_lo``/``_hi``.  A narrowing may move a bound past
    the value asked for (the new bound is the next value in the domain), so
    the run re-reads the bound it narrowed.  An integer's events do not
    tell which bound moved, so both vectors subscribe to
    ``BOUNDS_CHANGED``."""

    __slots__ = ("xs", "ys")
    priority = PRIORITY_GLOBAL

    def __init__(self, xs, ys):
        self.xs = list(xs)
        self.ys = list(ys)

    def subscriptions(self):
        for var in self.xs + self.ys:
            yield var, BOUNDS_CHANGED

    def propagate(self, s):
        lo, hi = s._lo, s._hi
        xs, ys = self.xs, self.ys
        n = len(xs)
        a = 0
        while True:
            while a < n:
                x, y = xs[a], ys[a]
                xl, xh, yl, yh = lo[x], hi[x], lo[y], hi[y]
                if not xl == xh == yl == yh:
                    break
                a += 1
            if a == n:
                return SUBSUMED
            gap = 0
            for j in range(a + 1, n):
                xl_j = lo[xs[j]]
                yh_j = hi[ys[j]]
                if xl_j != yh_j:
                    gap = 0 if xl_j < yh_j else 1
                    break
            b = yh - gap
            if b < xh:
                if b < xl:
                    return PROP_FAILED
                s.narrow(x, MAX, b)
                xh = hi[x]
                if y == x:
                    yh = xh
            b = xl + gap
            if b > yl:
                if b > yh:
                    return PROP_FAILED
                s.narrow(y, MIN, b)
                yl = lo[y]
                if x == y:
                    xl = yl
            if not xl == xh == yl == yh:
                break
            a += 1
        return SUBSUMED if xh < yl else AT_FIXPOINT


class UpperBoundProp(Propagator):
    """objective <= bound; posted by branch and bound into its solve's
    engine, never into the model."""

    __slots__ = ("var", "bound")
    priority = PRIORITY_CHEAP

    def __init__(self, var, bound):
        self.var = var
        self.bound = bound

    def propagate(self, s):
        if s.narrow(self.var, MAX, self.bound) is FAILED:
            return PROP_FAILED
        return SUBSUMED


# -- posting API -------------------------------------------------------


def _integer(value, what):
    """``value`` as an int; a float or any other non-integral number is
    refused rather than truncated."""
    try:
        return index(value)
    except TypeError:
        raise PostError(f"{what} must be an integer, got {value!r}") from None


def _id_range(model, vars):
    """The smallest and the largest id in ``vars``, once every id is known
    to name a variable of the model.  Integer ids run 0, 1, 2, ... and
    Boolean ids -1, -2, ..., so all are known exactly when these two are,
    and the two also tell the kinds: all integers when the smallest is not
    negative, all Booleans when the largest is negative.  That holds for
    integral ids only; a sum over ints stays an int and any other number
    makes it a non-int, so one ``index`` of the sum, computed in C,
    refuses a float wherever it sits."""
    try:
        index(sum(vars))
    except TypeError:
        raise PostError(f"variable ids must be integers, got {list(vars)}") from None
    lo, hi = min(vars), max(vars)
    s = model.store
    if lo < -len(s._bstate) or hi >= len(s._mask):
        raise PostError(f"unknown variable among {list(vars)}")
    return lo, hi


def _check_terms(model, terms):
    if not terms:
        raise PostError("linear constraint needs at least one term")
    lo, _ = _id_range(model, [v for _, v in terms])
    if lo < 0:
        raise PostError("linear constraints take integer variables only")
    total = 0
    s = model.store
    for coeff, var in terms:
        if coeff == 0:
            raise PostError("zero coefficient in linear term")
        total += abs(coeff) * max(abs(s.min(var)), abs(s.max(var)))
    if total > INT64_MAX:
        raise PostError("linear constraint exceeds the 64-bit overflow contract")


def _check_rel(rel):
    if rel not in (EQ, LEQ, GEQ):
        raise PostError(f"unknown relation {rel!r}")


def _post_sum(model, rel, c, make):
    """Post the propagator(s) for one sum per the model's sum mode."""
    if rel == EQ and model.sum_mode == SUM_DECOMPOSED:
        model.add(make(LEQ, c))
        model.add(make(GEQ, c))
    else:
        model.add(make(rel, c))


def post_linear(model, terms, rel, c):
    """Post sum(coeff*var) rel c: one propagator, or under the decomposed
    sum mode a ``<=`` and ``>=`` pair for ``=``.  A repeated variable's
    coefficients are added into one term, in order of first occurrence,
    and the terms whose coefficients cancel are dropped, so the bounds
    reasoning sees each variable once.  When none remains, ``0 rel c`` is
    decided here: it posts nothing or raises ``PostError``."""
    _check_rel(rel)
    try:
        terms = [(index(a), v) for a, v in terms]
    except TypeError:
        raise PostError(f"coefficients must be integers, got {terms!r}") from None
    c = _integer(c, "constant")
    _check_terms(model, terms)
    if len({v for _, v in terms}) < len(terms):
        merged = {}
        for a, v in terms:
            merged[v] = merged.get(v, 0) + a
        terms = [(a, v) for v, a in merged.items() if a]
        if not terms:
            cmin, cmax = _interval(rel, c)
            if cmin <= 0 <= cmax:
                return
            raise PostError(f"linear constraint reads 0 {rel} {c}, which cannot hold")
    diff = _as_difference(terms)

    def make(r, bound):
        if r == EQ and diff is not None:
            x, y, z, sign = diff
            return DiffProp(x, y, z, sign * bound)
        return LinearProp(terms, r, bound)

    _post_sum(model, rel, c, make)


def _as_difference(terms):
    """(x, y, z, sign) when the terms, each on its own variable, are three
    with unit coefficients of mixed sign, so that ``terms = c`` reads
    x = y + z + sign * c; otherwise None.  x is the variable whose sign is
    in the minority and sign is its coefficient."""
    if len(terms) != 3:
        return None
    if any(a not in (1, -1) for a, _ in terms):
        return None
    pos = [v for a, v in terms if a == 1]
    neg = [v for a, v in terms if a == -1]
    if len(neg) == 1:
        return neg[0], pos[0], pos[1], -1
    if len(pos) == 1:
        return pos[0], neg[0], neg[1], 1
    return None


def _all_01(store, vars):
    """Whether every variable is an integer within {0..1}."""
    return all(is_int_var(v) and store.min(v) >= 0 and store.max(v) <= 1 for v in vars)


def post_bool_sum(model, vars, rel, c, *, pair_counted=False):
    """Sum of Boolean variables rel c; counter-based over native Booleans,
    routed to the linear propagator over {0..1} integers (what the integer
    Boolean mode builds).  The variables must be distinct and all of one
    kind.  The decomposed sum mode posts an ``=`` sum as a ``<=`` and
    ``>=`` pair, and a pair-counted ``<=`` or ``>=`` sum with a second,
    trivially-true bound in the opposite direction (``sum >= 0`` next to
    ``sum <= 1``)."""
    _check_rel(rel)
    vars = list(vars)
    if not vars:
        raise PostError("boolean sum needs at least one variable")
    lo, hi = _id_range(model, vars)
    c = _integer(c, "constant")
    # Both routes count a repeated variable once per occurrence, and neither
    # reaches the closure of such a sum, so it is refused in both modes.
    if len(set(vars)) < len(vars):
        raise PostError("boolean sum over a repeated variable")
    # A mix must not reach LinearProp, which would read a Boolean id's
    # integer bounds from the end of the store's arrays.
    if is_int_var(lo) != is_int_var(hi):
        raise PostError("boolean sum mixes Boolean and integer variables")
    if is_int_var(lo):
        # Over a wider integer the trivially-true half would prune.
        if not _all_01(model.store, vars):
            raise PostError("boolean sum takes Booleans or {0..1} integers")
        make = partial(LinearProp, [(1, v) for v in vars])
    else:
        make = partial(BoolSumProp, vars)
    _post_sum(model, rel, c, make)
    if rel != EQ and pair_counted and model.sum_mode == SUM_DECOMPOSED:
        model.add(make(GEQ, 0) if rel == LEQ else make(LEQ, len(vars)))


def post_alldifferent(model, vars):
    vars = list(vars)
    if len(vars) < 2:
        raise PostError("alldifferent needs at least two variables")
    if not is_int_var(_id_range(model, vars)[0]):
        raise PostError("alldifferent takes integer variables only")
    if len(set(vars)) < len(vars):
        raise PostError("alldifferent over a repeated variable cannot hold")
    model.add(AllDiffValueProp(vars))


def _post_unary(model, var, op, c):
    """Post a unary constraint by narrowing the model's domain: the domain
    is the constraint, so no propagator is posted, and ``model.unaries``
    counts it.  The narrowing reads the variable's slot first, so an id
    that names no variable raises ``IndexError`` there, and one that is no
    integer ``TypeError``, before anything changes; catching them keeps the
    check off the path of the many unary posts that name real variables."""
    try:
        c = index(c)
    except TypeError:
        raise PostError(f"constant must be an integer, got {c!r}") from None
    try:
        r = model.store.narrow(var, op, c)
    except (TypeError, IndexError):
        raise PostError(f"unknown variable {var!r}") from None
    if r is FAILED:
        raise PostError(f"unary constraint on variable {var} empties its domain")
    model.unaries += 1


def post_ne_const(model, var, c):
    """var != c, removed from the domain at posting."""
    _post_unary(model, var, REMOVE, c)


def post_fix(model, var, c):
    """var = c, assigned in the domain at posting."""
    _post_unary(model, var, ASSIGN, c)


def post_le(model, x, y, strict=False):
    if not is_int_var(_id_range(model, (x, y))[0]):
        raise PostError("le takes integer variables only")
    # Over x < x, LeProp moves each bound one step per run and its own
    # narrowing does not wake it, so it would stop short of failing.
    if strict and x == y:
        raise PostError(f"strict le of variable {x} with itself cannot hold")
    model.add(LeProp(x, y, strict))


def post_bool_and(model, z, x, y):
    """z = x and y over three Booleans or three integers within {0..1},
    the two cases the propagator's three-state read handles."""
    lo, hi = _id_range(model, (z, x, y))
    if hi >= 0:  # an integer among them; tested inline, as golfers posts 1,900
        if lo < 0:
            raise PostError("boolean and mixes Boolean and integer variables")
        if not _all_01(model.store, (z, x, y)):
            raise PostError("boolean and takes three Booleans or three {0..1} integers")
    model.add(BoolAndProp(z, x, y))


def post_lex_leq(model, xs, ys):
    """xs <=lex ys over two vectors of one kind of variable, by
    the kernel for that kind: ``IntLexLeqProp`` for integers, ``LexLeqProp``
    for Booleans."""
    xs, ys = list(xs), list(ys)
    if not xs or len(xs) != len(ys):
        raise PostError("lex needs two equal-length non-empty vectors")
    lo, hi = _id_range(model, xs + ys)
    if is_int_var(lo) != is_int_var(hi):
        raise PostError("lex mixes Boolean and integer variables")
    kernel = IntLexLeqProp if is_int_var(lo) else LexLeqProp
    model.add(kernel(xs, ys))

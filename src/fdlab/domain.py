"""Variable store with bitset integer domains and specialised Boolean domains.

Every domain change is one :meth:`VariableStore.narrow` call, the whole
path of the change: it trails the old state (when a trailing backend gave
the store a trail) before the change becomes visible, queues the
propagators that the change's event wakes and, when an integer is
instantiated, appends it to the delta lists of its delta takers.  A
solve's store is its :class:`fdlab.propagate.Engine`, which adds the
queue: it files each propagator in the five wake tables, one per event,
as it joins, keeps the delta lists and owns the pid states and queue
buckets that ``narrow`` fills.  A model's own store files nothing, so a
narrowing made while posting wakes nothing.

The trail holds an integer variable's whole state, ``(var, mask, lo,
hi)``, at most once per frame: each integer variable carries the stamp
of the frame that last trailed it, and a change trails only when that
stamp is not the current frame.  :meth:`VariableStore.mark` and
:meth:`VariableStore.undo` each start a new frame, so the first change
after either is trailed; the oldest entry of a variable above a mark is
then its state at that mark.  A Boolean cell changes at most once on a
path, and so does a pid's state byte, which stays ``ASLEEP`` from the
fixpoint that finds the pid subsumed on.  Both trail an ``(array, index,
old)`` entry: the Boolean cells with the old cell, the engine's pid
states with ``IDLE``.  :meth:`VariableStore.undo` tells these 3-tuples
from an integer's 4-tuple by length and writes trailed states back,
newest first, with no bit arithmetic.

Integer domains are bitsets over the variable's original bounds with
cached lo/hi; Boolean domains are three-state cells, bytes (0, 1 or
``UNKNOWN``, which is 2) in one ``bytearray``, so a snapshot of all of them
is one block copy.  A ``bytearray`` is CPython's cheapest byte container to
index: its item reads and writes skip the type-code dispatch of an
``array``.  A Boolean is narrowed without bit arithmetic: an action
keeps both of its values, neither or the one value it names, so a change
is an unknown cell fixed to that value.  Boolean variables expose the same
observable semantics as integer variables with domain {0..1}.

A variable is a plain int.  An integer variable is its slot in the integer
arrays (``_base``, ``_mask``, ``_lo``, ``_hi``); a Boolean is ``~cell``,
the bitwise complement of its index in ``_bstate``, so ``var < 0`` is the
kind test.  A list read at a negative index counts from its end instead of
raising, so a Boolean id that reached an integer array would read the wrong
cell silently: posting code keeps Booleans out of integer-only propagators
with :func:`is_int_var`.
"""

from __future__ import annotations

import enum
from operator import index


def is_int_var(var):
    """True for an integer variable, False for a Boolean one."""
    return var >= 0


class EventClass(enum.IntEnum):
    """Wake-up granularity of an integer's events, ordered by strength."""

    DOMAIN_CHANGED = 0
    BOUNDS_CHANGED = 1
    INSTANTIATED = 2


class BoolEvent(enum.IntEnum):
    """A Boolean's events: its cell was fixed to 0 or to 1.  They number on
    from the event classes, so no event equals another: a Boolean
    subscribed with an event class is never filed as one of its values."""

    FIXED_FALSE = 3
    FIXED_TRUE = 4


class Op(enum.IntEnum):
    REMOVE = 0
    MIN = 1
    MAX = 2
    ASSIGN = 3


# Module-level names for the members: a plain global load is an order of
# magnitude cheaper than an enum attribute load on the narrowing hot path.
REMOVE, MIN, MAX, ASSIGN = Op
DOMAIN_CHANGED, BOUNDS_CHANGED, INSTANTIATED = EventClass
FIXED_FALSE, FIXED_TRUE = BoolEvent

# A propagator's state byte in ``Engine``'s pid states.  A change queues only
# IDLE pids; ASLEEP covers the running propagator and the subsumed ones.
IDLE = 0
QUEUED = 1
ASLEEP = 2


class _Failed:
    __slots__ = ()

    def __repr__(self):
        return "FAILED"

    def __bool__(self):
        return False


#: Sentinel narrow outcome: the action would empty the domain.  The domain
#: itself is left untouched; the caller must abort the current fixpoint.
FAILED = _Failed()

#: Boolean state for "not yet decided": the byte value after the two a cell
#: can be fixed to, as a ``bytearray`` holds 0..255 only.
UNKNOWN = 2
_UNKNOWN_BYTE = bytes([UNKNOWN])


class DomainError(ValueError):
    """Invalid domain construction (e.g. lo > hi)."""


class VariableStore:
    """The variable domains of a model, or of a solve as its ``Engine``,
    indexed by variable.

    The restorable state is the integer bitset masks, the Boolean cells
    and the engine's pid state bytes, which at a fixpoint say which pids
    are subsumed; the cached bounds are derived, and a size is the mask's
    bit count.  A copy backend snapshots that state as one region
    (``snapshot_blob``): the masks stay a list of Python ints, and the
    Boolean cells, bytes in one ``bytearray``, are copied as one block, as
    are the state bytes.  The snapshot also copies the cached bounds, so
    ``load_blob`` restores every list by slice assignment.
    ``region_bytes`` is the modelled domain region, one 64-bit word per
    Boolean and per 64 values of an integer domain, not the Python
    footprint; it counts neither the bounds nor the state bytes.
    """

    def __init__(self):
        self.trail = None  # first changes per frame, kept while trailing
        # Frame ids start above every stamp, so a change before the first
        # mark is trailed too.
        self._frame = 1
        # integer variables, indexed by id
        self._base = []
        self._mask = []
        self._lo = []
        self._hi = []
        self._stamp = []  # frame that last trailed the variable
        # Boolean variables, indexed by ~id
        self._bstate = bytearray()
        self._region_words = 0
        # The wake path, filed by ``_file``: one wake table per event
        # (variable -> pids), delta taker -> its delta list, and integer
        # variable -> the delta lists of its takers.  The pid states stay
        # empty here; an Engine owns them and the pid -> queue bucket.
        self._wake_dom = {}
        self._wake_bounds = {}
        self._wake_inst = {}
        self._wake_false = {}
        self._wake_true = {}
        self.deltas = {}
        self._delta_lists = {}
        self._state = bytearray()

    # -- construction -------------------------------------------------

    def new_int_var(self, lo, hi):
        if lo > hi:
            raise DomainError(f"empty initial domain [{lo}..{hi}]")
        span = hi - lo + 1
        self._base.append(lo)
        self._mask.append((1 << span) - 1)
        self._lo.append(lo)
        self._hi.append(hi)
        self._stamp.append(0)
        self._region_words += -(-span // 64)
        return len(self._mask) - 1

    def new_bool_var(self):
        self._bstate.append(UNKNOWN)
        self._region_words += 1
        return ~(len(self._bstate) - 1)

    def new_bool_vars(self, n):
        """Add ``n`` unknown Booleans in one extend; returns their ids.  A
        negative or non-integral count raises ``DomainError``."""
        try:
            n = index(n)
        except TypeError:
            raise DomainError(f"Boolean count {n!r} must be an integer") from None
        if n < 0:
            raise DomainError(f"Boolean count {n} is negative")
        first = len(self._bstate)
        self._bstate += _UNKNOWN_BYTE * n
        self._region_words += n
        return range(~first, ~(first + n), -1)

    @property
    def num_vars(self):
        return len(self._mask) + len(self._bstate)

    @property
    def region_bytes(self):
        """Size in bytes of the modelled restorable domain region."""
        return 8 * self._region_words

    # -- queries ------------------------------------------------------

    def min(self, var):
        if var >= 0:
            return self._lo[var]
        s = self._bstate[~var]
        return 0 if s == UNKNOWN else s

    def max(self, var):
        if var >= 0:
            return self._hi[var]
        s = self._bstate[~var]
        return 1 if s == UNKNOWN else s

    def size(self, var):
        if var >= 0:
            return self._mask[var].bit_count()
        return 2 if self._bstate[~var] == UNKNOWN else 1

    def value(self, var):
        if self.size(var) != 1:
            raise ValueError(f"{var} is not assigned")
        return self.min(var)

    def domain_values(self, var):
        if var < 0:
            s = self._bstate[~var]
            return [0, 1] if s == UNKNOWN else [s]
        base = self._base[var]
        m = self._mask[var]
        out = []
        while m:
            lsb = m & -m
            out.append(base + lsb.bit_length() - 1)
            m ^= lsb
        return out

    # -- mutation -----------------------------------------------------

    def _file(self, props, first):
        """File the subscriptions of ``props[first:]``, the engine's
        propagators by pid, in the wake tables: an integer's subscription
        under its event class and every stronger one; a Boolean's to
        ``FIXED_FALSE`` or ``FIXED_TRUE`` under that value alone, and any
        other under both values.  So ``narrow`` need walk only the table of
        a change's own event.  A propagator that takes deltas gets its list
        in ``deltas``, filed under each of its integer variables in
        ``_delta_lists`` and seeded with those already fixed, which no
        narrowing will report."""
        wake_dom, wake_bounds, wake_inst = self._wake_dom, self._wake_bounds, self._wake_inst
        wake_false, wake_true = self._wake_false, self._wake_true
        delta_lists = self._delta_lists
        for pid in range(first, len(props)):
            prop = props[pid]
            # Read with a default: a duck-typed propagator need not declare it.
            takes_deltas = getattr(prop, "takes_deltas", False)
            if takes_deltas:
                deltas = self.deltas.setdefault(prop, [])
            for var, klass in prop.subscriptions():
                if var < 0:
                    if klass != FIXED_TRUE:
                        wake_false.setdefault(var, []).append(pid)
                    if klass != FIXED_FALSE:
                        wake_true.setdefault(var, []).append(pid)
                    continue
                wake_inst.setdefault(var, []).append(pid)
                if klass != INSTANTIATED:
                    wake_bounds.setdefault(var, []).append(pid)
                    if klass == DOMAIN_CHANGED:
                        wake_dom.setdefault(var, []).append(pid)
                if takes_deltas:
                    delta_lists.setdefault(var, []).append(deltas)
                    if self.size(var) == 1:
                        deltas.append(var)

    def narrow(self, var, op, value):
        """Intersect the domain with the action's allowed set.

        Returns the change's event when the domain changed: an integer's
        strongest :class:`EventClass`, or the :class:`BoolEvent` of the
        value a Boolean's cell was fixed to.  Returns ``None`` when the
        domain is bit-identical, or :data:`FAILED` when the intersection
        would be empty (the domain is left as-is).
        ``EventClass.DOMAIN_CHANGED`` is 0 and therefore falsy, so callers
        must compare the result with ``is None`` or ``is FAILED``.

        One call is the whole path of a change, for either kind of
        variable: it trails, writes, and queues the idle pids of the
        event's wake table in table order, so the running propagator never
        requeues itself and a subsumed one sleeps until a backtrack
        re-enables it.  Both arms end in one wake loop; only the integer
        arms feed the delta lists, on an ``INSTANTIATED`` change.  An
        integer arm trails the whole state only when the variable's stamp
        is not the current frame.

        The Boolean arm first works out the one value the action keeps:
        ``ASSIGN v`` keeps v, ``REMOVE`` of 0 or 1 keeps the other, ``MIN 1``
        keeps 1 and ``MAX 0`` keeps 0.  Any other action keeps both values
        and returns ``None``, or keeps neither, which the arm carries as a
        kept value outside {0, 1}.  A fixed cell returns ``None`` when it
        holds the kept value and ``FAILED`` otherwise; a kept value outside
        {0, 1}, ``UNKNOWN``'s 2 included, never equals a fixed cell.  An
        unknown cell fails on a kept value outside {0, 1}, a check made
        before the kept value meets the cell: writing 2 would leave the cell
        unknown, and a value outside 0..255 does not fit a byte.  Otherwise
        the cell is fixed to the kept value.

        The integer arms read ``lo`` and ``hi`` first.  A ``MIN`` at or
        below ``lo`` returns ``None``, one above ``hi`` ``FAILED``, and any
        other writes the mask and ``_lo`` only; ``MAX`` is its mirror.  Both
        report ``INSTANTIATED`` when the bounds meet.  A ``REMOVE`` or
        ``ASSIGN`` outside ``[lo, hi]`` returns before any mask arithmetic;
        otherwise it recomputes both bounds and compares them with the old.
        """
        if var < 0:
            if op is ASSIGN:
                keep = value
            elif op is REMOVE:
                if value == 0:
                    keep = 1
                elif value == 1:
                    keep = 0
                else:
                    return None
            elif op is MIN:
                if value <= 0:
                    return None
                keep = value
            else:  # MAX
                if value >= 1:
                    return None
                keep = value
            cells = self._bstate
            cell = ~var
            cur = cells[cell]
            if cur != UNKNOWN:
                return None if cur == keep else FAILED
            if keep == 0:
                r = FIXED_FALSE
                pids = self._wake_false.get(var)
            elif keep == 1:
                r = FIXED_TRUE
                pids = self._wake_true.get(var)
            else:
                return FAILED
            if self.trail is not None:
                self.trail.append((cells, cell, UNKNOWN))
            cells[cell] = keep
        else:
            base = self._base[var]
            mask = self._mask[var]
            lo = self._lo[var]
            hi = self._hi[var]
            if op is MIN:
                if value <= lo:
                    return None
                if value > hi:
                    return FAILED
                off = value - base
                new = (mask >> off) << off
                trail = self.trail
                if trail is not None and self._stamp[var] != self._frame:
                    self._stamp[var] = self._frame
                    trail.append((var, mask, lo, hi))
                self._mask[var] = new
                lo = base + (new & -new).bit_length() - 1
                self._lo[var] = lo
                r = INSTANTIATED if lo == hi else BOUNDS_CHANGED
            elif op is MAX:
                if value >= hi:
                    return None
                if value < lo:
                    return FAILED
                new = mask & ((1 << (value - base + 1)) - 1)
                trail = self.trail
                if trail is not None and self._stamp[var] != self._frame:
                    self._stamp[var] = self._frame
                    trail.append((var, mask, lo, hi))
                self._mask[var] = new
                hi = base + new.bit_length() - 1
                self._hi[var] = hi
                r = INSTANTIATED if lo == hi else BOUNDS_CHANGED
            else:
                if not lo <= value <= hi:
                    return None if op is REMOVE else FAILED
                bit = 1 << (value - base)
                new = mask & ~bit if op is REMOVE else mask & bit
                if new == mask:
                    return None
                if not new:
                    return FAILED
                trail = self.trail
                if trail is not None and self._stamp[var] != self._frame:
                    self._stamp[var] = self._frame
                    trail.append((var, mask, lo, hi))
                self._mask[var] = new
                new_lo = base + (new & -new).bit_length() - 1
                new_hi = base + new.bit_length() - 1
                self._lo[var] = new_lo
                self._hi[var] = new_hi
                if new_lo == new_hi:
                    r = INSTANTIATED
                elif new_lo != lo or new_hi != hi:
                    r = BOUNDS_CHANGED
                else:
                    r = DOMAIN_CHANGED
            if r is INSTANTIATED:
                pids = self._wake_inst.get(var)
                lists = self._delta_lists.get(var)
                if lists:
                    for deltas in lists:
                        deltas.append(var)
            elif r is BOUNDS_CHANGED:
                pids = self._wake_bounds.get(var)
            else:
                pids = self._wake_dom.get(var)
        if pids:
            state = self._state
            bucket = self._bucket
            for pid in pids:
                if not state[pid]:
                    state[pid] = QUEUED
                    bucket[pid].append(pid)
        return r

    # -- restoration support -------------------------------------------

    def snapshot_blob(self):
        """Copy of the restorable region, ``(masks, lo, hi, cells,
        states)``: the masks with their cached bounds, so that a load
        recomputes nothing, the Boolean cells and the pid states."""
        return self._mask[:], self._lo[:], self._hi[:], self._bstate[:], self._state[:]

    def load_blob(self, blob):
        """Restore the region ``blob`` copied; pids that joined the engine
        after the copy become idle."""
        masks, lo, hi, bstates, states = blob
        n = len(masks)
        self._mask[:n] = masks
        self._lo[:n] = lo
        self._hi[:n] = hi
        self._bstate[: len(bstates)] = bstates
        n = len(states)
        self._state[:n] = states
        if len(self._state) > n:
            self._state[n:] = bytes(len(self._state) - n)

    def mark(self):
        """Start a new frame and return the trail's length, the mark that
        ``undo`` pops back to.  Frame ids come from a counter, never from
        the trail's length: a node reopened at an undone node's length
        would otherwise share its id, skip trailing and keep its changes
        past the backtrack."""
        self._frame += 1
        return len(self.trail)

    def undo(self, mark):
        """Pop the trail back to its first ``mark`` entries, writing each
        popped state back, newest first, and start a new frame, so that a
        change made before the next ``mark`` is trailed again."""
        self._frame += 1
        trail = self.trail
        undone = trail[mark:]
        del trail[mark:]
        mask, lo, hi = self._mask, self._lo, self._hi
        for entry in reversed(undone):
            if len(entry) == 3:
                cells, i, old = entry
                cells[i] = old
            else:
                # Targets bind left to right: var is set before it indexes.
                var, mask[var], lo[var], hi[var] = entry

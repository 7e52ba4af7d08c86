"""Variable store with bitset integer domains and specialised Boolean domains.

Every domain mutation goes through :meth:`VariableStore.narrow`, which
appends the old state to the store's trail (when a trailing backend gave it
one) before the change becomes visible and reports its event: the strongest
applicable event class for an integer, the value written for a Boolean.
:meth:`VariableStore.undo` pops trailed states back, newest first.
Integer domains are bitsets over the variable's original bounds with cached
lo/hi/size; Boolean domains are three-state cells, signed bytes
(``UNKNOWN``, 0 or 1) in one ``array("b")``, so a snapshot of all of them is
one block copy.  Boolean variables expose the same observable semantics as
integer variables with domain {0..1}.

A variable is a plain int.  An integer variable is its slot in the integer
arrays (``_mask``, ``_lo``, ``_hi``, ``_size``, ``_base``, ``_span``); a
Boolean is ``~cell``, the bitwise complement of its index in ``_bstate``, so
``var < 0`` is the kind test.  A list read at a negative index counts from
its end instead of raising, so a Boolean id that reached an integer array
would read the wrong cell silently: posting code keeps Booleans out of
integer-only propagators with :func:`is_int_var`.
"""

from __future__ import annotations

import enum
from array import array


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
    from the event classes, so that one tuple of wake tables, indexed by
    event, serves both kinds of variable (see :data:`EVENTS`)."""

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

#: Every event, in index order: the indices of ``Engine``'s wake tables.
EVENTS = (*EventClass, *BoolEvent)


class _Failed:
    __slots__ = ()

    def __repr__(self):
        return "FAILED"

    def __bool__(self):
        return False


#: Sentinel narrow outcome: the action would empty the domain.  The domain
#: itself is left untouched; the caller must abort the current fixpoint.
FAILED = _Failed()

#: Boolean state for "not yet decided".
UNKNOWN = -1
_UNKNOWN_BYTE = array("b", [UNKNOWN]).tobytes()


class DomainError(ValueError):
    """Invalid domain construction (e.g. lo > hi)."""


class VariableStore:
    """All variable domains of one solver instance, indexed by variable.

    The restorable state is the integer bitset masks plus the Boolean
    cells; cached bounds and sizes are derived.  A copy backend snapshots
    that state as one region (``snapshot_blob``): the masks stay a list of
    Python ints, and the Boolean cells, signed bytes in one ``array("b")``,
    are copied as one block.  The snapshot also copies the cached bounds
    and sizes, so ``load_blob`` restores every list by slice assignment;
    they are derived, so they count in neither ``region_bytes`` nor
    ``domains_equal``.  ``region_bytes`` is the modelled region, one
    64-bit word per Boolean and per 64 values of an integer domain, not the
    Python footprint.
    """

    def __init__(self):
        self.trail = None  # (var, old state) per change, kept while trailing
        # integer variables, indexed by id
        self._base = []
        self._span = []
        self._mask = []
        self._lo = []
        self._hi = []
        self._size = []
        # Boolean variables, indexed by ~id
        self._bstate = array("b")
        self._region_words = 0

    # -- construction -------------------------------------------------

    def new_int_var(self, lo, hi):
        if lo > hi:
            raise DomainError(f"empty initial domain [{lo}..{hi}]")
        span = hi - lo + 1
        self._base.append(lo)
        self._span.append(span)
        self._mask.append((1 << span) - 1)
        self._lo.append(lo)
        self._hi.append(hi)
        self._size.append(span)
        self._region_words += -(-span // 64)
        return len(self._mask) - 1

    def new_bool_var(self):
        self._bstate.append(UNKNOWN)
        self._region_words += 1
        return ~(len(self._bstate) - 1)

    def new_bool_vars(self, n):
        """Add ``n`` unknown Booleans in one extend; returns their ids."""
        first = len(self._bstate)
        self._bstate.frombytes(_UNKNOWN_BYTE * n)
        self._region_words += n
        return range(~first, ~(first + n), -1)

    def fork(self):
        """A store for one solve: it shares this store's variable layout
        (so variables are added to the original only) and owns a copy of
        the domains, and no trail until a backend gives it one."""
        # Built through __init__, not copy.copy: an instance whose __dict__
        # was filled by update loses the attribute layout that makes the
        # hot-path reads of self._mask, self._lo, ... fast.
        twin = VariableStore()
        for name in ("_base", "_span", "_region_words"):
            setattr(twin, name, getattr(self, name))
        for name in ("_mask", "_lo", "_hi", "_size", "_bstate"):
            setattr(twin, name, getattr(self, name)[:])
        return twin

    @property
    def num_vars(self):
        return len(self._mask) + len(self._bstate)

    @property
    def num_bool_vars(self):
        return len(self._bstate)

    @property
    def num_int_vars(self):
        return len(self._mask)

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
            return self._size[var]
        return 2 if self._bstate[~var] == UNKNOWN else 1

    def is_assigned(self, var):
        return self.size(var) == 1

    def value(self, var):
        if not self.is_assigned(var):
            raise ValueError(f"{var} is not assigned")
        return self.min(var)

    def contains(self, var, v):
        if var >= 0:
            off = v - self._base[var]
            return 0 <= off < self._span[var] and (self._mask[var] >> off) & 1
        s = self._bstate[~var]
        if v not in (0, 1):
            return False
        return s == UNKNOWN or s == v

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

    def narrow(self, var, op, value):
        """Intersect the domain with the action's allowed set.

        Returns the change's event when the domain changed: an integer's
        strongest :class:`EventClass`, or the :class:`BoolEvent` of the
        value a Boolean's cell was fixed to.  Returns ``None`` when the
        domain is bit-identical, or :data:`FAILED` when the intersection
        would be empty (the domain is left as-is).
        ``EventClass.DOMAIN_CHANGED`` is 0 and therefore falsy, so callers
        must compare the result with ``is None`` or ``is FAILED``.

        One call does the whole store side of a change, for either kind of
        variable; :meth:`fdlab.propagate.Engine.narrow` calls it once and
        then queues the propagators that the returned event wakes, so the
        Boolean branch's value report costs the integer path nothing.

        The integer arms are specialised by op.  A ``MIN`` at or below the
        base, or a ``MAX`` at or above the top of the span, returns ``None``
        before any mask arithmetic.  A ``MIN`` that changes the mask writes
        the mask, ``_lo`` and ``_size`` only, and a ``MAX`` the mask, ``_hi``
        and ``_size``: a change by either always moves its own bound and
        never the other, so neither reads the old bounds, and each returns
        ``INSTANTIATED`` or ``BOUNDS_CHANGED``.  ``REMOVE`` and ``ASSIGN``
        recompute lo, hi and size and compare the bounds with the old ones.
        """
        if var < 0:
            cur = self._bstate[~var]
            if op is ASSIGN:
                allowed = 1 << value if value in (0, 1) else 0
            elif op is REMOVE:
                allowed = 3 & ~(1 << value if value in (0, 1) else 0)
            elif op is MIN:
                allowed = 3 if value <= 0 else (2 if value == 1 else 0)
            else:  # MAX
                allowed = 3 if value >= 1 else (1 if value == 0 else 0)
            have = 3 if cur == UNKNOWN else 1 << cur
            new = have & allowed
            if new == have:
                return None
            if new == 0:
                return FAILED
            if self.trail is not None:
                self.trail.append((var, cur))
            if new == 1:
                self._bstate[~var] = 0
                return FIXED_FALSE
            self._bstate[~var] = 1
            return FIXED_TRUE
        base = self._base[var]
        mask = self._mask[var]
        off = value - base
        if op is MIN:
            if off <= 0:
                return None
            new = (mask >> off) << off
            if new == mask:
                return None
            if not new:
                return FAILED
            if self.trail is not None:
                self.trail.append((var, mask))
            self._mask[var] = new
            self._lo[var] = base + (new & -new).bit_length() - 1
            size = new.bit_count()
            self._size[var] = size
            return INSTANTIATED if size == 1 else BOUNDS_CHANGED
        span = self._span[var]
        if op is MAX:
            if off >= span - 1:
                return None
            if off < 0:
                return FAILED
            new = mask & ((1 << (off + 1)) - 1)
            if new == mask:
                return None
            if not new:
                return FAILED
            if self.trail is not None:
                self.trail.append((var, mask))
            self._mask[var] = new
            self._hi[var] = base + new.bit_length() - 1
            size = new.bit_count()
            self._size[var] = size
            return INSTANTIATED if size == 1 else BOUNDS_CHANGED
        if op is REMOVE:
            if not (0 <= off < span):
                return None
            new = mask & ~(1 << off)
        else:  # ASSIGN
            new = mask & (1 << off) if 0 <= off < span else 0
        if new == mask:
            return None
        if new == 0:
            return FAILED
        if self.trail is not None:
            self.trail.append((var, mask))
        self._mask[var] = new
        old_lo, old_hi = self._lo[var], self._hi[var]
        lo = base + ((new & -new).bit_length() - 1)
        hi = base + new.bit_length() - 1
        size = new.bit_count()
        self._lo[var] = lo
        self._hi[var] = hi
        self._size[var] = size
        if size == 1:
            return INSTANTIATED
        if lo != old_lo or hi != old_hi:
            return BOUNDS_CHANGED
        return DOMAIN_CHANGED

    # -- restoration support -------------------------------------------

    def snapshot_blob(self):
        """Copy of the restorable domain region (masks + Boolean cells),
        with the masks' cached bounds and sizes so that a load recomputes
        nothing."""
        return (self._mask[:], self._lo[:], self._hi[:], self._size[:], self._bstate[:])

    def load_blob(self, blob):
        masks, lo, hi, size, bstates = blob
        n = len(masks)
        self._mask[:n] = masks
        self._lo[:n] = lo
        self._hi[:n] = hi
        self._size[:n] = size
        self._bstate[: len(bstates)] = bstates

    def undo(self, mark):
        """Pop the trail back to its first ``mark`` entries, reinstating each
        popped pre-change state, newest first."""
        trail = self.trail
        undone = trail[mark:]
        del trail[mark:]
        mask, bstate, base = self._mask, self._bstate, self._base
        lo, hi, size = self._lo, self._hi, self._size
        for var, old in reversed(undone):
            if var < 0:
                bstate[~var] = old
                continue
            b = base[var]
            mask[var] = old
            lo[var] = b + ((old & -old).bit_length() - 1)
            hi[var] = b + old.bit_length() - 1
            size[var] = old.bit_count()

    def domains_equal(self, blob):
        masks, _, _, _, bstates = blob
        return self._mask == masks and self._bstate == bstates

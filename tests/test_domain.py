import pytest
from hypothesis import example, given, strategies as st

from fdlab.domain import (
    FAILED,
    MAX_DOMAIN_SPAN,
    MAX_REGION_WORDS,
    UNKNOWN,
    BoolEvent,
    EventClass,
    ModelError,
    Op,
    VariableStore,
    is_int_var,
)
from fdlab.model import Model
from fdlab.propagate import Engine


def test_int_var_creation():
    store = VariableStore()
    x = store.new_int_var(0, 9)
    assert is_int_var(x)
    assert store.min(x) == 0
    assert store.max(x) == 9
    assert store.size(x) == 10
    assert store.domain_values(x) == list(range(10))


def test_int_var_negative_bounds():
    store = VariableStore()
    x = store.new_int_var(-19, 19)
    assert store.min(x) == -19
    assert store.max(x) == 19
    assert store.size(x) == 39


def test_empty_initial_domain_rejected():
    store = VariableStore()
    with pytest.raises(ModelError):
        store.new_int_var(5, 4)


def test_model_caps_domain_span():
    """A span past the cap, or an empty one, fails as a model error before
    the store allocates a mask for it."""
    model = Model()
    model.new_int_var(0, MAX_DOMAIN_SPAN - 1)
    model.new_int_var(-5, MAX_DOMAIN_SPAN - 6)
    with pytest.raises(ModelError):
        model.new_int_var(0, MAX_DOMAIN_SPAN)
    with pytest.raises(ModelError):
        model.new_int_var(0, 10**8, decision=True)
    with pytest.raises(ModelError):
        model.new_int_var(5, 1, decision=True)
    assert len(model.store._mask) == 2
    assert model.store.region_bytes == 2 * 8 * (MAX_DOMAIN_SPAN // 64)
    assert model.decision_vars == []


def test_model_caps_the_modelled_region():
    """Each way a model makes variables refuses the one that would take the
    modelled region past the cap, before the store grows; the region can
    fill up to the cap exactly."""
    model = Model()
    span_words = MAX_DOMAIN_SPAN // 64
    full = MAX_REGION_WORDS // span_words - 1
    for _ in range(full):
        model.new_int_var(1, MAX_DOMAIN_SPAN)
    with pytest.raises(ModelError):
        model.store.new_bool_vars(span_words + 1)
    model.store.new_bool_vars(span_words - 1)
    with pytest.raises(ModelError):
        model.new_int_var(0, 64, decision=True)
    model.new_bool_var(decision=True)
    assert model.store.region_bytes == 8 * MAX_REGION_WORDS
    with pytest.raises(ModelError):
        model.new_bool_var()
    with pytest.raises(ModelError):
        model.new_int_var(0, 0)
    with pytest.raises(ModelError):
        model.store.new_bool_vars(1)
    # A negative count would shrink the modelled region below what the
    # store holds, and a non-integral one is no count: both are refused.
    for bad in (-span_words, -MAX_REGION_WORDS, 1.5, "2", None):
        with pytest.raises(ModelError):
            model.store.new_bool_vars(bad)
    assert not model.store.new_bool_vars(0)
    assert model.store.region_bytes == 8 * MAX_REGION_WORDS
    assert model.store.num_vars == full + span_words
    assert len(model.decision_vars) == 1

    # The bypass a negative count opened: down by the cap, up by the cap,
    # then past it.
    model = Model()
    with pytest.raises(ModelError):
        model.store.new_bool_vars(-MAX_REGION_WORDS)
    model.store.new_bool_vars(MAX_REGION_WORDS)
    with pytest.raises(ModelError):
        model.store.new_bool_vars(100)
    assert model.store.num_vars == MAX_REGION_WORDS
    assert model.store.region_bytes == 8 * MAX_REGION_WORDS


def test_bare_store_checks_each_new_variable():
    """A store built without a model makes the same checks: a bound that is
    no integer, a span past the cap and each way past the region cap raise
    ``ModelError`` before the store grows."""
    store = VariableStore()
    store.new_int_var(0, 9)
    store.new_bool_var()
    before = (store.num_vars, store.region_bytes)
    for lo, hi in ((0.5, 3), ("0", 3), (0, MAX_DOMAIN_SPAN)):
        with pytest.raises(ModelError):
            store.new_int_var(lo, hi)
    assert (store.num_vars, store.region_bytes) == before

    store.new_bool_vars(MAX_REGION_WORDS - 2)
    full = (store.num_vars, store.region_bytes)
    assert store.region_bytes == 8 * MAX_REGION_WORDS
    with pytest.raises(ModelError, match="words of modelled domains"):
        store.new_int_var(0, 0)
    with pytest.raises(ModelError, match="words of modelled domains"):
        store.new_bool_var()
    with pytest.raises(ModelError, match="words of modelled domains"):
        store.new_bool_vars(1)
    assert (store.num_vars, store.region_bytes) == full


def test_bool_var_creation():
    store = VariableStore()
    b = store.new_bool_var()
    assert not is_int_var(b)
    assert store.min(b) == 0
    assert store.max(b) == 1
    assert store.size(b) == 2
    assert store.domain_values(b) == [0, 1]


def test_event_strength_ordering():
    assert (
        EventClass.DOMAIN_CHANGED
        < EventClass.BOUNDS_CHANGED
        < EventClass.INSTANTIATED
    )


def test_narrow_event_classes():
    store = VariableStore()
    x = store.new_int_var(0, 9)
    # interior removal keeps the bounds
    ev = store.narrow(x, Op.REMOVE, 5)
    assert ev is EventClass.DOMAIN_CHANGED
    # moving a bound
    ev = store.narrow(x, Op.MAX, 7)
    assert ev is EventClass.BOUNDS_CHANGED
    assert store.max(x) == 7
    ev = store.narrow(x, Op.MIN, 2)
    assert ev is EventClass.BOUNDS_CHANGED
    assert store.min(x) == 2
    # down to a single value
    ev = store.narrow(x, Op.ASSIGN, 3)
    assert ev is EventClass.INSTANTIATED
    assert store.size(x) == 1
    assert store.value(x) == 3


def test_narrow_no_change_returns_none():
    store = VariableStore()
    x = store.new_int_var(0, 9)
    assert store.narrow(x, Op.MAX, 9) is None
    assert store.narrow(x, Op.MIN, -3) is None
    assert store.narrow(x, Op.REMOVE, 42) is None


def test_failed_narrow_leaves_domain_untouched():
    store = VariableStore()
    x = store.new_int_var(3, 5)
    before = store.domain_values(x)
    assert store.narrow(x, Op.MAX, 2) is FAILED
    assert store.narrow(x, Op.MIN, 6) is FAILED
    assert store.narrow(x, Op.ASSIGN, 9) is FAILED
    assert store.domain_values(x) == before


def test_remove_last_value_fails():
    store = VariableStore()
    x = store.new_int_var(4, 4)
    assert store.narrow(x, Op.REMOVE, 4) is FAILED
    assert store.value(x) == 4


def test_bool_narrow():
    store = VariableStore()
    b = store.new_bool_var()
    ev = store.narrow(b, Op.REMOVE, 1)
    assert ev is BoolEvent.FIXED_FALSE
    assert store.value(b) == 0
    assert store.narrow(b, Op.ASSIGN, 0) is None
    assert store.narrow(b, Op.ASSIGN, 1) is FAILED
    assert store.value(b) == 0


def test_bool_narrow_via_bounds():
    store = VariableStore()
    b = store.new_bool_var()
    assert store.narrow(b, Op.MIN, 1) is BoolEvent.FIXED_TRUE
    assert store.value(b) == 1
    c = store.new_bool_var()
    assert store.narrow(c, Op.MAX, 0) is BoolEvent.FIXED_FALSE
    assert store.value(c) == 0


def test_region_bytes_accounting():
    store = VariableStore()
    assert store.region_bytes == 0
    store.new_int_var(0, 9)  # one 64-bit word
    assert store.region_bytes == 8
    store.new_int_var(0, 100)  # 101 values -> two words
    assert store.region_bytes == 24
    store.new_bool_var()  # one word
    assert store.region_bytes == 32


def test_bulk_booleans_match_one_at_a_time():
    """``new_bool_vars(n)`` is ``n`` calls of ``new_bool_var``: the same
    ids, cells and region size."""
    one, bulk = VariableStore(), VariableStore()
    for store in (one, bulk):
        store.new_int_var(0, 9)
        store.new_bool_var()
    ids = [one.new_bool_var() for _ in range(5)]
    assert list(bulk.new_bool_vars(5)) == ids
    assert list(bulk.new_bool_vars(0)) == []
    assert bulk._bstate == one._bstate and bulk.region_bytes == one.region_bytes
    assert all(bulk.size(b) == 2 for b in ids)


def test_bulk_booleans_refuse_a_bad_count():
    """A negative count would drive ``region_bytes``, and so
    ``bytes_copied``, below zero, and a non-integral one is no count: the
    store refuses both with ``ModelError`` before it grows."""
    store = VariableStore()
    store.new_bool_var()
    before = (bytes(store._bstate), store.region_bytes)
    for bad in (-5, -1, 1.5, "2", None):
        with pytest.raises(ModelError):
            store.new_bool_vars(bad)
    assert (bytes(store._bstate), store.region_bytes) == before


def test_snapshot_blob_round_trip():
    store = VariableStore()
    x = store.new_int_var(0, 9)
    b = store.new_bool_var()
    blob = store.snapshot_blob()
    store.narrow(x, Op.MAX, 4)
    store.narrow(b, Op.ASSIGN, 1)
    assert store.snapshot_blob() != blob
    store.load_blob(blob)
    assert store.snapshot_blob() == blob
    assert store.max(x) == 9
    assert store.size(b) == 2


def test_fork_and_original_add_variables_independently():
    """An engine owns its copy of the variable layout: a variable added to
    the engine or to the store it copied leaves the other's next variable
    with its own domain."""
    store = VariableStore()
    store.new_int_var(0, 1)
    twin = Engine(store, ())
    t = twin.new_int_var(5, 9)
    b = store.new_int_var(0, 3)
    assert b == t
    assert store.domain_values(b) == [0, 1, 2, 3]
    assert (store.min(b), store.max(b), store.size(b)) == (0, 3, 4)
    assert twin.domain_values(t) == [5, 6, 7, 8, 9]
    assert (twin.min(t), twin.max(t), twin.size(t)) == (5, 9, 5)
    assert store.narrow(b, Op.REMOVE, 2) is not FAILED
    assert store.domain_values(b) == [0, 1, 3]
    assert twin.domain_values(t) == [5, 6, 7, 8, 9]


_OPS = st.tuples(
    st.sampled_from([Op.REMOVE, Op.MIN, Op.MAX, Op.ASSIGN]),
    st.integers(-3, 12),
)


def _allowed(op, value, values):
    """The values of ``values`` that the action keeps."""
    if op is Op.REMOVE:
        return values - {value}
    if op is Op.MIN:
        return {v for v in values if v >= value}
    if op is Op.MAX:
        return {v for v in values if v <= value}
    return values & {value}


def _reference_event(before, after):
    """The event a narrowing from the value set ``before`` to ``after``
    must report."""
    if after == before:
        return None
    if not after:
        return FAILED
    if len(after) == 1:
        return EventClass.INSTANTIATED
    if min(after) != min(before) or max(after) != max(before):
        return EventClass.BOUNDS_CHANGED
    return EventClass.DOMAIN_CHANGED


# Moves the bounds of test_narrowing_never_grows_domain's x in to -2 and 7.
_INWARD = [(Op.MIN, -2, False), (Op.MAX, 7, False)]


@given(
    st.integers(-3, 8),
    st.lists(
        st.tuples(st.sampled_from(list(Op)), st.integers(-7, 12), st.booleans()), max_size=30
    ),
)
@example(3, [*_INWARD, (Op.MIN, -2, True)])
@example(3, [*_INWARD, (Op.MIN, 7, True)])
@example(3, [*_INWARD, (Op.MIN, 8, True)])
@example(3, [*_INWARD, (Op.MAX, 7, True)])
@example(3, [*_INWARD, (Op.MAX, -2, True)])
@example(3, [*_INWARD, (Op.MAX, -3, True)])
@example(3, [*_INWARD, (Op.MIN, 3, True)])
@example(3, [*_INWARD, (Op.REMOVE, -3, True)])
@example(3, [*_INWARD, (Op.ASSIGN, -3, True)])
def test_narrowing_never_grows_domain(hole, ops):
    """Every op on a domain with a negative base and a hole reports the
    reference event, and the first change in a frame trails the whole old
    state, (var, mask, lo, hi), while later changes in that frame trail
    nothing.  A step may first open a frame with ``mark``; undoing the
    marks newest first restores each frame's domain exactly.  The examples
    move both bounds in and then act at, just past or between them: a
    ``MIN`` or ``MAX`` at either bound or one past it, a ``MIN`` into the
    hole, and a ``REMOVE`` or ``ASSIGN`` of a value between the base and
    ``lo``."""
    store = VariableStore()
    store.trail = []
    x = store.new_int_var(-4, 9)
    state = lambda: (store._mask[x], store.min(x), store.max(x), store.size(x))  # noqa: E731
    assert store.narrow(x, Op.REMOVE, hole) is EventClass.DOMAIN_CHANGED
    marks = []
    trailed = True  # the root change above was this frame's first
    for op, value, opens in ops:
        if opens:
            marks.append((store.mark(), state()))
            trailed = False
        before = set(store.domain_values(x))
        size = store.size(x)
        old = (x, store._mask[x], store.min(x), store.max(x))
        trail_len = len(store.trail)
        r = store.narrow(x, op, value)
        after = set(store.domain_values(x))
        assert r is _reference_event(before, _allowed(op, value, before))
        if r is FAILED or r is None:
            assert after == before
            assert len(store.trail) == trail_len
        else:
            assert after == _allowed(op, value, before) < before
            assert store.size(x) < size
            assert store.trail[trail_len:] == ([] if trailed else [old])
            trailed = True
        assert store.min(x) in after and store.max(x) in after
        assert store.size(x) == len(after)
    for mark, at_mark in reversed(marks):
        store.undo(mark)
        assert state() == at_mark
        assert len(store.trail) == mark


@given(st.lists(st.tuples(_OPS, st.booleans()), max_size=30))
@example([((Op.ASSIGN, -1), False)])
@example([((Op.MAX, -1), False)])
@example([((Op.REMOVE, -1), False)])
@example([((Op.ASSIGN, 2), False)])
@example([((Op.MIN, 2), False)])
@example([((Op.ASSIGN, 1), False), ((Op.ASSIGN, 2), False)])
@example([((Op.ASSIGN, 0), False), ((Op.ASSIGN, 2), False)])
@example([((Op.ASSIGN, 1), False), ((Op.MIN, 2), False)])
@example([((Op.ASSIGN, 0), False), ((Op.MIN, 2), False)])
@example([((Op.ASSIGN, 1), False), ((Op.MAX, 2), False)])
@example([((Op.ASSIGN, 0), False), ((Op.MAX, 2), False)])
@example([((Op.ASSIGN, 1), False), ((Op.REMOVE, 2), False)])
@example([((Op.ASSIGN, 0), False), ((Op.REMOVE, 2), False)])
def test_bool_matches_int_zero_one(ops):
    """A Boolean variable and a {0..1} integer must behave identically.
    Each Boolean change trails exactly one ``(cells, cell, old)`` entry, and
    undoing the marks newest first restores both variables, as does loading
    the root's snapshot; both write ``UNKNOWN`` back into the cell.  A step
    may first open a frame with ``mark``.  The examples act with values
    outside {0, 1}: on an unknown cell, where ``UNKNOWN`` (2) must not read
    as a kept value, and on a fixed cell, where 2 must not read as unknown."""
    store = VariableStore()
    store.trail = []
    b = store.new_bool_var()
    x = store.new_int_var(0, 1)
    root = store.snapshot_blob()
    assert type(root[3]) is bytearray and type(root[4]) is bytearray
    marks = [(store.mark(), [0, 1])]
    for (op, value), opens in ops:
        if opens:
            marks.append((store.mark(), store.domain_values(b)))
        old = store._bstate[~b]
        trail_len = len(store.trail)
        rb = store.narrow(b, op, value)
        if rb is FAILED or rb is None:
            assert len(store.trail) == trail_len
        else:
            assert store.trail[trail_len:] == [(store._bstate, ~b, old)]
            assert store.trail[-1][0] is store._bstate
        rx = store.narrow(x, op, value)
        if rb is FAILED or rx is FAILED:
            assert rb is FAILED and rx is FAILED
        elif rb is None or rx is None:
            assert rb is None and rx is None
        else:
            # The integer reports instantiation, the Boolean the value.
            assert rx is EventClass.INSTANTIATED
            assert rb is (BoolEvent.FIXED_TRUE if store.min(x) else BoolEvent.FIXED_FALSE)
        assert store.min(b) == store.min(x)
        assert store.max(b) == store.max(x)
        assert store.size(b) == store.size(x)
        assert store.domain_values(b) == store.domain_values(x)
    end = store.snapshot_blob()
    store.load_blob(root)
    assert store._bstate[~b] == UNKNOWN
    assert store.domain_values(b) == store.domain_values(x) == [0, 1]
    store.load_blob(end)
    for mark, at_mark in reversed(marks):
        store.undo(mark)
        assert len(store.trail) == mark
        assert store.domain_values(b) == store.domain_values(x) == at_mark
    assert store._bstate[~b] == UNKNOWN

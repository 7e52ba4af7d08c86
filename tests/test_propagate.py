import pytest
from hypothesis import given, settings, strategies as st

from fdlab.constraints import EQ, LEQ, GEQ, BoolSumProp, LeProp, LexLeqProp, UpperBoundProp
from fdlab.constraints import post_le, post_linear
from fdlab.domain import VariableStore
from fdlab.model import Model
from fdlab.problems import build, parse_instance
from fdlab.propagate import (
    AT_FIXPOINT,
    PRIORITY_CHEAP,
    PRIORITY_GLOBAL,
    PRIORITY_LINEAR,
    SUBSUMED,
    Engine,
)
from fdlab.restore import RestoreMode, make_backend
from fdlab.search import minimize


def _engine(model, policy="fifo"):
    return Engine(model.store, model.props, policy)


def test_queue_rejects_unknown_policy():
    with pytest.raises(ValueError):
        Engine(VariableStore(), [], "lifo")
    with pytest.raises(ValueError):
        minimize(build(parse_instance("golomb:4")), queue="lifo")


class _Recorder:
    """Subscribes to the (variable, event class) pairs it is given, if any,
    and logs its pid each time it runs."""

    def __init__(self, log, pid, priority, *subs):
        self.log = log
        self.pid = pid
        self.priority = priority
        self.subs = subs

    def subscriptions(self):
        return self.subs

    def propagate(self, store):
        self.log.append(self.pid)
        return AT_FIXPOINT


def _recorders(log, priorities):
    model = Model()
    for pid, priority in enumerate(priorities, 1):
        model.add(_Recorder(log, pid, priority))
    return model


def test_queue_deduplicates():
    log = []
    eng = _engine(_recorders(log, [PRIORITY_LINEAR]))
    eng.push(0)
    eng.push(0)
    assert 0 in eng
    assert eng.fixpoint()
    assert log == [1]
    assert 0 not in eng


def test_queue_policies_order():
    priorities = [PRIORITY_GLOBAL, PRIORITY_CHEAP, PRIORITY_LINEAR, PRIORITY_CHEAP]

    def drain(policy):
        # The last one joins through Engine.add, as branch and bound's bound
        # does, so its bucket is resolved there.
        log = []
        eng = _engine(_recorders(log, priorities[:-1]), policy)
        eng.add(_Recorder(log, len(priorities), priorities[-1]))
        eng.schedule_all()
        assert eng.fixpoint()
        return log

    assert drain("fifo") == [1, 2, 3, 4]
    assert drain("priority") == [2, 4, 3, 1]  # low value first, FIFO ties
    assert drain("reversed") == [1, 3, 2, 4]
    assert (PRIORITY_CHEAP, PRIORITY_LINEAR, PRIORITY_GLOBAL) == (0, 1, 2)


def test_engine_files_its_wake_path_on_its_fork_only():
    """The engine is a copy of the model's store that files the
    subscriptions: a change made on the engine wakes its subscribers and
    feeds its delta lists, while the model's own store keeps empty tables,
    so a change there wakes nothing."""
    from fdlab.constraints import AllDiffValueProp
    from fdlab.domain import Op

    model = Model()
    x, y, z = (model.new_int_var(0, 5) for _ in range(3))
    post_le(model, x, y)
    alldiff = model.add(AllDiffValueProp([x, y, z]))
    eng = Engine(model.store, model.props)
    model.store.narrow(y, Op.MAX, 4)
    model.store.narrow(z, Op.ASSIGN, 1)
    assert 0 not in eng and alldiff not in eng
    assert not model.store._state and not model.store._wake_inst
    assert not model.store.deltas
    eng.narrow(z, Op.ASSIGN, 2)
    assert alldiff in eng and eng.deltas[eng.props[alldiff]] == [z]
    eng.narrow(y, Op.MAX, 3)
    assert 0 in eng
    assert eng.fixpoint() and eng.domain_values(x) == [0, 1, 3]
    assert model.store.domain_values(z) == [1]


def test_engine_add_files_a_subscribing_propagator():
    """A propagator added to a live engine is filed like the model's: a
    narrowing of its variable wakes it, and a delta taker's list is seeded
    with its variables already fixed.  The model is left unchanged."""
    from fdlab.constraints import AllDiffValueProp
    from fdlab.domain import Op

    model = Model()
    x, y, z = (model.new_int_var(0, 5) for _ in range(3))
    eng = Engine(model.store, model.props)
    le = eng.add(LeProp(x, y))
    assert le == 0 and le not in eng
    eng.narrow(y, Op.MAX, 3)
    assert le in eng
    assert eng.fixpoint() and eng.max(x) == 3
    eng.narrow(z, Op.ASSIGN, 2)
    alldiff = AllDiffValueProp([x, y, z])
    pid = eng.add(alldiff)
    assert eng.deltas[alldiff] == [z] and pid not in eng
    eng.push(pid)
    assert eng.fixpoint() and not eng.deltas[alldiff]
    assert eng.domain_values(x) == eng.domain_values(y) == [0, 1, 3]
    eng.narrow(x, Op.ASSIGN, 1)
    assert le in eng and pid in eng and eng.deltas[alldiff] == [x]
    assert eng.fixpoint() and eng.domain_values(y) == [3]
    bound = eng.add(UpperBoundProp(z, 1))
    eng.push(bound)
    assert not eng.fixpoint()
    assert not model.props and model.store.domain_values(z) == list(range(6))


@pytest.mark.parametrize("policy", Engine.POLICIES)
def test_post_bnb_matches_tighten_under_every_policy(policy):
    """bnb="post" adds a bounding propagator during the solve; it must land
    in its policy's bucket and leave the tree that of bnb="tighten"."""
    results = []
    for bnb in ("tighten", "post"):
        best, stats = minimize(build(parse_instance("golomb:6")), bnb=bnb, queue=policy)
        results.append((best.objective, stats.nodes, stats.backtracks, stats.solutions))
    assert results == [(17, 356, 176, 3)] * 2


def _model_x_between():
    model = Model()
    x = model.new_int_var(0, 10)
    post_linear(model, [(1, x)], LEQ, 5)
    post_linear(model, [(1, x)], GEQ, 3)
    return model, x


@pytest.mark.parametrize("policy", Engine.POLICIES)
def test_bounds_fixpoint_all_policies(policy, request):
    model, x = _model_x_between()
    eng = _engine(model, policy)
    eng.schedule_all()
    assert eng.fixpoint()
    assert eng.domain_values(x) == [3, 4, 5]


def test_unsat_strict_cycle():
    model = Model()
    x = model.new_int_var(0, 5)
    y = model.new_int_var(0, 5)
    post_le(model, x, y, strict=True)
    post_le(model, y, x, strict=True)
    eng = _engine(model)
    eng.schedule_all()
    assert not eng.fixpoint()
    # drained on failure
    assert not any(pid in eng for pid in range(len(eng.props)))


def test_wakeup_respects_event_class():
    from fdlab.domain import EventClass, Op

    model = Model()
    x = model.new_int_var(0, 9)

    class Recorder:
        priority = 2

        def __init__(self, klass):
            self.klass = klass

        def subscriptions(self):
            yield x, self.klass

        def propagate(self, store):
            return 0

    bounds_pid = model.add(Recorder(EventClass.BOUNDS_CHANGED))
    inst_pid = model.add(Recorder(EventClass.INSTANTIATED))
    eng = _engine(model)
    # interior removal: too weak for either subscription
    eng.narrow(x, Op.REMOVE, 5)
    assert bounds_pid not in eng and inst_pid not in eng
    # bound move wakes the bounds subscriber only
    eng.narrow(x, Op.MAX, 7)
    assert bounds_pid in eng and inst_pid not in eng
    # instantiation wakes everyone
    eng.narrow(x, Op.ASSIGN, 2)
    assert inst_pid in eng


class _Waker:
    """Subscribes to one (variable, event class) pair and does nothing."""

    priority = PRIORITY_CHEAP

    def __init__(self, var, klass):
        self.var = var
        self.klass = klass

    def subscriptions(self):
        yield self.var, self.klass

    def propagate(self, store):
        return AT_FIXPOINT


def _wakers(model, var):
    """One subscriber of ``var`` per event class, weakest first."""
    from fdlab.domain import EventClass

    return [model.add(_Waker(var, klass)) for klass in EventClass]


@pytest.mark.parametrize("policy", Engine.POLICIES)
def test_hole_removal_wakes_only_domain_subscribers(policy):
    from fdlab.domain import Op

    model = Model()
    x = model.new_int_var(0, 9)
    pids = _wakers(model, x)
    eng = _engine(model, policy)
    eng.narrow(x, Op.REMOVE, 5)
    assert [pid in eng for pid in pids] == [True, False, False]
    assert eng.fixpoint()
    eng.narrow(x, Op.MIN, 2)
    assert [pid in eng for pid in pids] == [True, True, False]


def _queued_after_fixing(model, pid, var, value, policy="fifo"):
    """Whether fixing ``var`` to ``value`` on an engine over the model
    queues ``pid``."""
    from fdlab.domain import Op

    eng = Engine(model.store, model.props, policy)
    eng.narrow(var, Op.ASSIGN, value)
    return pid in eng


@pytest.mark.parametrize("policy", Engine.POLICIES)
def test_boolean_fix_wakes_every_subscriber(policy):
    """A Boolean's events are its fixings to 0 and to 1, so a subscription
    of any event class is filed under both values, in no other table, and
    fixing the Boolean either way wakes every class subscriber."""
    model = Model()
    b = model.new_bool_var()
    pids = _wakers(model, b)
    store = _engine(model)
    assert store._wake_false[b] == pids
    assert store._wake_true[b] == pids
    assert not any(b in t for t in (store._wake_dom, store._wake_bounds, store._wake_inst))
    for value in (0, 1):
        assert all(_queued_after_fixing(model, pid, b, value, policy) for pid in pids)


@pytest.mark.parametrize("rel, wakes_on", [(LEQ, (1,)), (GEQ, (0,)), (EQ, (0, 1))])
def test_bool_sum_wakes_only_on_the_value_that_can_prune(rel, wakes_on):
    """A cell going false does not queue a <= sum, a cell going true does
    not queue a >= sum, and either queues a = sum."""
    model = Model()
    cells = [model.new_bool_var() for _ in range(3)]
    pid = model.add(BoolSumProp(cells, rel, 1))
    for value in (0, 1):
        assert _queued_after_fixing(model, pid, cells[1], value) == (value in wakes_on)


def test_bool_lex_wakes_on_both_values():
    """Fixing any variable of a Boolean lex to either value queues it: an x
    turning true or a y turning false can make it prune, and an x turning
    false or a y turning true can entail it, as [x] <=lex [1] shows."""
    from fdlab.domain import Op

    model = Model()
    x0, x1, shared, y1 = (model.new_bool_var() for _ in range(4))
    pid = model.add(LexLeqProp([x0, x1, shared], [shared, y1, x1]))
    assert all(
        _queued_after_fixing(model, pid, var, value)
        for var in (x0, x1, shared, y1) for value in (0, 1)
    )
    model = Model()
    x, y = model.new_bool_var(), model.new_bool_var()
    pid = model.add(LexLeqProp([x], [y]))
    eng = Engine(model.store, model.props)
    eng.narrow(y, Op.ASSIGN, 1)
    eng.schedule_all()
    assert eng.fixpoint() and pid not in eng.subsumed
    eng.narrow(x, Op.ASSIGN, 0)
    assert pid in eng
    assert eng.fixpoint() and pid in eng.subsumed


@pytest.mark.parametrize("policy", Engine.POLICIES)
def test_running_and_subsumed_propagators_are_not_queued(policy):
    from fdlab.domain import EventClass, Op

    model = Model()
    x = model.new_int_var(0, 9)
    woken = []

    class Narrower:
        """Removes x's maximum, then checks which propagators that woke."""

        priority = PRIORITY_LINEAR

        def subscriptions(self):
            yield x, EventClass.DOMAIN_CHANGED

        def propagate(self, store):
            store.narrow(x, Op.REMOVE, store.max(x))
            woken.extend(pid in eng for pid in (narrower, entailed, idle))
            return AT_FIXPOINT

    narrower = model.add(Narrower())
    entailed = model.add(LeProp(x, model.new_int_var(9, 9)))
    idle = model.add(_Waker(x, EventClass.BOUNDS_CHANGED))
    eng = _engine(model, policy)
    eng.push(entailed)
    assert eng.fixpoint() and entailed in eng.subsumed
    eng.push(narrower)
    assert eng.fixpoint()
    assert woken == [False, False, True]
    assert eng.max(x) == 8


def test_running_propagator_not_rescheduled_by_own_narrow():
    from fdlab.domain import EventClass, Op

    model = Model()
    x = model.new_int_var(0, 9)

    class SelfNarrower:
        priority = 2

        def subscriptions(self):
            yield x, EventClass.DOMAIN_CHANGED

        def propagate(self, store):
            store.narrow(x, Op.REMOVE, store.max(x))
            return 0

    pid = model.add(SelfNarrower())
    eng = _engine(model)
    eng.push(pid)
    assert eng.fixpoint()
    # exactly one run: its own removal must not have requeued it
    assert eng.max(x) == 8


#: How a test returns to an earlier level: through the trail (the store's
#: ``mark``/``undo``) or through copies (``snapshot_blob``/``load_blob``).
_RESTORES = [RestoreMode.trail(), RestoreMode.copy()]


def _entailable(n, restore):
    """An engine over ``n`` posts of x <= y over x in 0..2, y in 5..9, each
    entailed as soon as it runs, their pids, and a ``restore`` backend
    whose open frames are the levels."""
    model = Model()
    pids = [
        model.add(LeProp(model.new_int_var(0, 2), model.new_int_var(5, 9)))
        for _ in range(n)
    ]
    eng = _engine(model)
    return eng, pids, make_backend(restore, eng, replay=None)


def _entailed_at(depths, restore):
    """Run one entailed x <= y per depth, in order, to its subsumption with
    that many levels open."""
    eng, pids, backend = _entailable(len(depths), restore)
    for pid, depth in zip(pids, depths):
        while len(backend.frames) < depth:
            backend.open_node([])
        eng.push(pid)
        assert eng.fixpoint()
    return eng, pids, backend


def test_subsumed_propagator_skipped_until_unsubsumed():
    for restore in _RESTORES:
        eng, (pid,), backend = _entailed_at([5], restore)
        assert eng.subsumed == {pid}
        eng.push(pid)
        assert pid not in eng
        backend.backtrack_to(4)
        assert pid not in eng.subsumed
        eng.push(pid)
        assert pid in eng


def test_unsubsume_above_reenables_only_deeper_entailments():
    for restore in _RESTORES:
        eng, pids, backend = _entailed_at(range(4), restore)

        def reenabled():
            for pid in pids:
                eng.push(pid)
            out = [pid in eng for pid in pids]
            eng.clear()
            return out

        backend.backtrack_to(2)
        assert reenabled() == [False, False, False, True]
        assert eng.subsumed == {pids[0], pids[1], pids[2]}
        backend.backtrack_to(0)
        assert reenabled() == [False, True, True, True]
        assert eng.subsumed == {pids[0]}


_UNDO_STEPS = st.lists(
    st.one_of(
        # Open 0-2 levels more, then run pid there (it becomes entailed).
        st.tuples(st.just("subsume"), st.integers(0, 5), st.integers(0, 2)),
        # Return to this level, or stay at the current one if it is lower.
        st.tuples(st.just("backtrack"), st.integers(0, 12), st.none()),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(_UNDO_STEPS)
def test_entailment_undo_matches_dict_reference(steps):
    """Random interleavings of entailments and backtracks, through the
    trail and through copies: the subsumed pids equal a {pid: levels open
    when it was entailed} dict cut by level, and a push queues exactly the
    pids that dict does not hold."""
    for restore in _RESTORES:
        eng, pids, backend = _entailable(6, restore)
        frames = backend.frames
        reference = {}
        for kind, a, b in steps:
            if kind == "subsume":
                for _ in range(b):
                    backend.open_node([])
                eng.push(pids[a])
                assert eng.fixpoint()
                reference.setdefault(pids[a], len(frames))
            else:
                depth = min(a, len(frames))
                if depth < len(frames):
                    backend.backtrack_to(depth)
                reference = {pid: d for pid, d in reference.items() if d <= depth}
                assert len(frames) == depth
            assert eng.subsumed == set(reference)
            for pid in pids:
                eng.push(pid)
            assert [pid in eng for pid in pids] == [pid not in reference for pid in pids]
            eng.clear()


class _Entailed(_Recorder):
    """A recorder that reports itself subsumed."""

    def propagate(self, store):
        super().propagate(store)
        return SUBSUMED


@pytest.mark.parametrize("policy", Engine.POLICIES)
def test_narrow_queues_idle_pids_of_its_event_class_in_table_order(policy):
    """One ``narrow`` walks the wake table of the change's event class
    and queues its idle pids in table order, skipping a queued and a
    subsumed one; pids filed only in other tables stay idle."""
    from fdlab.domain import BOUNDS_CHANGED, DOMAIN_CHANGED, INSTANTIATED, Op

    log = []
    model = Model()
    x = model.new_int_var(0, 9)
    y = model.new_int_var(0, 9)
    # x's bounds table gets every domain and bounds subscriber of x; pid 3
    # waits for x's instantiation and pid 7 watches y, so neither is in it.
    subs = [(x, DOMAIN_CHANGED), (x, BOUNDS_CHANGED), (x, BOUNDS_CHANGED), (x, INSTANTIATED),
            (x, DOMAIN_CHANGED), (x, BOUNDS_CHANGED), (x, BOUNDS_CHANGED), (y, BOUNDS_CHANGED)]
    priorities = [PRIORITY_GLOBAL, PRIORITY_CHEAP, PRIORITY_LINEAR, PRIORITY_CHEAP,
                  PRIORITY_LINEAR, PRIORITY_CHEAP, PRIORITY_GLOBAL, PRIORITY_CHEAP]
    subsumed, queued = 2, 5
    for pid, (priority, sub) in enumerate(zip(priorities, subs)):
        kind = _Entailed if pid == subsumed else _Recorder
        model.add(kind(log, pid, priority, sub))
    eng = _engine(model, policy)
    table = eng._wake_bounds[x]
    assert table == [0, 1, subsumed, 4, queued, 6]
    eng.push(subsumed)
    assert eng.fixpoint() and eng.subsumed == {subsumed}
    eng.push(queued)
    log.clear()
    assert eng.narrow(x, Op.MAX, 7) is BOUNDS_CHANGED
    assert [pid in eng for pid in range(len(subs))] == [
        True, True, False, False, True, True, True, False
    ]
    assert eng.fixpoint()
    rank = {"fifo": lambda p: 0, "priority": lambda p: p, "reversed": lambda p: -p}
    # queued was in its bucket before the narrow; the rest follow the table.
    woken = [queued] + [pid for pid in table if pid not in (queued, subsumed)]
    assert log == sorted(woken, key=lambda pid: rank[policy](priorities[pid]))


def test_root_fixpoint_confluence_across_policies():
    """Monotone contracting propagators have one fixpoint; the queue policy
    only changes the route there."""

    def root_domains(policy):
        model = build(parse_instance("magic:4"))
        eng = _engine(model, policy)
        eng.schedule_all()
        assert eng.fixpoint()
        return [eng.domain_values(v) for v in model.decision_vars]

    fifo = root_domains("fifo")
    assert root_domains("priority") == fifo
    assert root_domains("reversed") == fifo

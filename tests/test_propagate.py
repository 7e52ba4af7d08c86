import pytest

from fdlab.constraints import LEQ, GEQ, LeProp, post_le, post_linear
from fdlab.domain import VariableStore
from fdlab.model import Model
from fdlab.problems import build, parse_instance
from fdlab.propagate import (
    NUM_PRIORITIES,
    PRIORITY_CHEAP,
    PRIORITY_GLOBAL,
    PRIORITY_LINEAR,
    Engine,
    PropQueue,
)


def test_queue_rejects_unknown_policy():
    with pytest.raises(ValueError):
        PropQueue("lifo")


def test_queue_deduplicates():
    q = PropQueue()
    q.push(7, 2)
    q.push(7, 2)
    assert len(q) == 1
    assert q.pop() == 7
    assert q.pop() is None


def test_queue_policies_order():
    entries = [
        (1, PRIORITY_GLOBAL),
        (2, PRIORITY_CHEAP),
        (3, PRIORITY_LINEAR),
        (4, PRIORITY_CHEAP),
    ]

    def drain(policy):
        q = PropQueue(policy)
        for pid, prio in entries:
            q.push(pid, prio)
        out = []
        while (pid := q.pop()) is not None:
            out.append(pid)
        return out

    assert drain("fifo") == [1, 2, 3, 4]
    assert drain("priority") == [2, 4, 3, 1]  # low value first, FIFO ties
    assert drain("reversed") == [1, 3, 2, 4]
    assert (PRIORITY_CHEAP, PRIORITY_LINEAR, PRIORITY_GLOBAL) == tuple(
        range(NUM_PRIORITIES)
    )


def _model_x_between():
    model = Model()
    x = model.new_int_var(0, 10)
    post_linear(model, [(1, x)], LEQ, 5)
    post_linear(model, [(1, x)], GEQ, 3)
    return model, x


@pytest.mark.parametrize("policy", PropQueue.POLICIES)
def test_bounds_fixpoint_all_policies(policy, request):
    model, x = _model_x_between()
    model.engine.queue = PropQueue(policy)
    model.engine.schedule_all()
    assert model.engine.fixpoint()
    assert model.store.domain_values(x) == [3, 4, 5]


def test_unsat_strict_cycle():
    model = Model()
    x = model.new_int_var(0, 5)
    y = model.new_int_var(0, 5)
    post_le(model, x, y, strict=True)
    post_le(model, y, x, strict=True)
    model.engine.schedule_all()
    assert not model.engine.fixpoint()
    assert len(model.engine.queue) == 0  # drained on failure


def test_wakeup_respects_event_class():
    from fdlab.domain import EventClass, Op

    store = VariableStore()
    eng = Engine(store)
    x = store.new_int_var(0, 9)

    class Recorder:
        priority = 2

        def __init__(self, klass):
            self.klass = klass

        def subscriptions(self):
            yield x, self.klass

        def propagate(self, eng):
            return 0

    bounds_pid = eng.add(Recorder(EventClass.BOUNDS_CHANGED))
    inst_pid = eng.add(Recorder(EventClass.INSTANTIATED))
    # interior removal: too weak for either subscription
    eng.narrow(x, Op.REMOVE, 5)
    assert bounds_pid not in eng.queue and inst_pid not in eng.queue
    # bound move wakes the bounds subscriber only
    eng.narrow(x, Op.MAX, 7)
    assert bounds_pid in eng.queue and inst_pid not in eng.queue
    # instantiation wakes everyone
    eng.narrow(x, Op.ASSIGN, 2)
    assert inst_pid in eng.queue


def test_running_propagator_not_rescheduled_by_own_narrow():
    from fdlab.domain import EventClass, Op

    store = VariableStore()
    eng = Engine(store)
    x = store.new_int_var(0, 9)

    class SelfNarrower:
        priority = 2

        def subscriptions(self):
            yield x, EventClass.DOMAIN_CHANGED

        def propagate(self, eng):
            eng.narrow(x, Op.REMOVE, store.max(x))
            return 0

    pid = eng.add(SelfNarrower())
    eng.schedule_pid(pid)
    assert eng.fixpoint()
    # exactly one run: its own removal must not have requeued it
    assert store.max(x) == 8


def _entail_at(store, eng, depth):
    """Post x <= y over x in 0..2, y in 5..9, which is entailed at once, and
    run it to its subsumption at search depth ``depth``."""
    store.depth = depth
    pid = eng.add(LeProp(store.new_int_var(0, 2), store.new_int_var(5, 9)))
    eng.schedule_pid(pid)
    assert eng.fixpoint()
    return pid


def test_subsumed_propagator_skipped_until_unsubsumed():
    store = VariableStore()
    eng = Engine(store)
    pid = _entail_at(store, eng, 5)
    assert eng.subsumed == {pid: 5}
    eng.schedule_pid(pid)
    assert len(eng.queue) == 0
    eng.unsubsume_above(4)
    assert pid not in eng.subsumed
    eng.schedule_pid(pid)
    assert pid in eng.queue


def test_unsubsume_above_reenables_only_deeper_entailments():
    store = VariableStore()
    eng = Engine(store)
    pids = [_entail_at(store, eng, depth) for depth in range(4)]

    def reenabled():
        for pid in pids:
            eng.schedule_pid(pid)
        out = [pid in eng.queue for pid in pids]
        eng.queue.clear()
        return out

    eng.unsubsume_above(2)
    assert reenabled() == [False, False, False, True]
    assert eng.subsumed == {pids[0]: 0, pids[1]: 1, pids[2]: 2}
    eng.unsubsume_above(0)
    assert reenabled() == [False, True, True, True]
    assert eng.subsumed == {pids[0]: 0}


def test_root_fixpoint_confluence_across_policies():
    """Monotone contracting propagators have one fixpoint; the queue policy
    only changes the route there."""

    def root_domains(policy):
        model = build(parse_instance("magic:4"))
        model.engine.queue = PropQueue(policy)
        model.engine.schedule_all()
        assert model.engine.fixpoint()
        store = model.store
        return [store.domain_values(v) for v in model.decision_vars]

    fifo = root_domains("fifo")
    assert root_domains("priority") == fifo
    assert root_domains("reversed") == fifo

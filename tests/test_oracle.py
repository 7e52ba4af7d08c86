"""Per-node fixpoint oracle: at the root and at every search node, the
engine's fixpoint must equal the closure that ``naive_closure`` computes
from the state before propagation, and every propagator with a
subscription must be asleep exactly when one run of it reports
``SUBSUMED`` (the rule of ``Propagator.subscriptions``).

The naive closure shares nothing with the solve's ``Engine`` but the
propagators: it runs them on a copy of the domains, an ``Engine`` with no
propagators, which files nothing and queues nothing.  It reads no wake
table, honours no subsumption and rebuilds every delta list from scratch,
so a subscription the engine failed to file, a delta it failed to seed or
a propagator it left asleep too long shows up as a difference in the
domains.
"""

import itertools

import pytest

from fdlab.constraints import GEQ, LEQ, post_alldifferent, post_bool_sum, post_fix, post_le
from fdlab.domain import FAILED
from fdlab.model import BOOL_INT, BOOL_NATIVE, SUM_DECOMPOSED, SUM_NATIVE, Model
from fdlab.problems import build, parse_instance
from fdlab.propagate import PROP_FAILED, SUBSUMED, Engine
from fdlab.restore import RestoreMode
from fdlab.search import A_SCHED, _Search, minimize, solve

#: The naive closure of a node whose own actions failed: nothing to compare.
_SKIP = object()


def naive_closure(store, props, actions):
    """The domains of the naive closure of ``store`` narrowed by a node's
    ``actions``: a snapshot, None when the closure fails, or ``_SKIP`` when
    an action fails.  The closure runs every propagator on a copy in turn,
    over and over, until a whole sweep changes no domain; before each run
    a delta taker's list is set to all of its fixed integer variables."""
    copy = Engine(store, ())
    for op, target, value in actions:
        # A reschedule applies nothing: the closure runs everything.
        if op is not A_SCHED and copy.narrow(target, op, value) is FAILED:
            return _SKIP
    while True:
        before = copy.snapshot_blob()
        for prop in props:
            if getattr(prop, "takes_deltas", False):
                copy.deltas[prop] = [
                    v for v, _ in prop.subscriptions() if v >= 0 and copy.size(v) == 1
                ]
            if prop.propagate(copy) == PROP_FAILED:
                return None
        if copy.snapshot_blob()[:4] == before[:4]:
            return before


def sleep_mismatches(eng):
    """The pids that break the sleep rule at the engine's fixpoint: each
    propagator with a subscription runs once, on a copy of the engine's
    domains with an empty delta list, and must report ``SUBSUMED`` exactly
    when its pid is asleep.  Returns (pid, class name, asleep, outcome) per
    mismatch, and one (None, 'store changed', None, None) when a run
    narrowed the copy, which no run at a fixpoint may do.  A pid with no
    subscription is exempt: it runs only when pushed (branch and bound's
    bound)."""
    copy = Engine(eng, ())
    asleep = eng.subsumed
    found = []
    for pid, prop in enumerate(eng.props):
        if next(iter(prop.subscriptions()), None) is None:
            continue
        copy.deltas[prop] = []
        outcome = prop.propagate(copy)
        if outcome == PROP_FAILED or (outcome == SUBSUMED) != (pid in asleep):
            found.append((pid, type(prop).__name__, pid in asleep, outcome))
    if copy.snapshot_blob()[:4] != eng.snapshot_blob()[:4]:
        found.append((None, "store changed", None, None))
    return found


class _Oracle:
    """Compares the engine with the naive closure, and the pid states with
    the sleep rule, at the root and at every node a search opens.  A node
    opened after a recomputing backtrack propagates the backtrack's tail
    with its own actions, so its closure is taken over the tail and the
    actions together.  Replay inside a backtrack is not checked: it
    rebuilds a historical state, which lacks the bounds that branch and
    bound has added since."""

    def __init__(self, monkeypatch):
        self.checked = 0
        self.mismatches = []
        self.sleep_mismatches = []
        root, try_node = _Search.root, _Search.try_node
        monkeypatch.setattr(_Search, "root", lambda s: self._check(s, (), root))
        monkeypatch.setattr(
            _Search,
            "try_node",
            lambda s, actions, tail=(): self._check(
                s, [*tail, *actions], try_node, actions, tail
            ),
        )

    def _check(self, search, actions, step, *args):
        expected = naive_closure(search.store, search.store.props, actions)
        ok = step(search, *args)
        if expected is not _SKIP:
            self.checked += 1
            if ok != (expected is not None) or (
                ok and search.store.snapshot_blob()[:4] != expected[:4]
            ):
                self.mismatches.append((search.stats.nodes, actions, ok))
        if ok:
            found = sleep_mismatches(search.store)
            self.sleep_mismatches.extend((search.stats.nodes, actions, m) for m in found)
        return ok


_INSTANCES = [
    "queens:6", "queens:7", "golomb:5", "golomb:6", "magic:3",
    "golfers:2,2,3", "bibd:7,3,1", "bibd:6,3,2",
]


@pytest.mark.parametrize("name", _INSTANCES)
def test_fixpoint_equals_the_naive_closure_at_every_node(name, monkeypatch):
    """Every Boolean mode, sum mode, queue policy and restore backend, all
    solutions (both branch-and-bound modes for golomb).  A model without
    Booleans is the same in both Boolean modes, so it runs in one."""
    oracle = _Oracle(monkeypatch)
    inst = parse_instance(name)
    configs = list(itertools.product(
        (BOOL_NATIVE, BOOL_INT) if inst.problem in ("golfers", "bibd") else (BOOL_NATIVE,),
        (SUM_NATIVE, SUM_DECOMPOSED),
        Engine.POLICIES,
        (RestoreMode.trail(), RestoreMode.copy_recompute(3)),
    ))
    for bool_mode, sum_mode, queue, restore in configs:
        model = build(inst, bool_mode=bool_mode, sum_mode=sum_mode)
        if inst.is_optimization:
            for bnb in ("tighten", "post"):
                minimize(model, bnb=bnb, restore=restore, queue=queue)
        else:
            solve(model, mode="all", restore=restore, queue=queue)
    assert oracle.checked > len(configs)
    assert oracle.mismatches == []
    assert oracle.sleep_mismatches == []


def test_oracle_sees_an_alldifferent_variable_fixed_before_the_solve(monkeypatch):
    """x = y = 1 is posted by narrowing the domains, so no narrowing during
    the solve reports it: only the seeded delta lists make alldifferent
    fail at the root."""
    oracle = _Oracle(monkeypatch)
    model = Model()
    x, y, z, w = (model.new_int_var(0, 2, decision=True) for _ in range(4))
    post_fix(model, x, 1)
    post_fix(model, y, 1)
    post_fix(model, w, 0)
    post_alldifferent(model, [x, y, z])
    post_le(model, z, w)
    found = [solve(model, mode="all", queue=queue)[0] for queue in Engine.POLICIES]
    assert oracle.mismatches == []
    assert oracle.sleep_mismatches == []
    assert oracle.checked == len(Engine.POLICIES)
    assert found == [[]] * len(Engine.POLICIES)


def test_one_sided_sums_sleep_by_the_domains(monkeypatch):
    """``<= 2`` over six of eight Booleans and ``>= 3`` over six: cells
    turning false can entail the ``<=`` sum, and cells turning true the
    ``>=`` sum, without waking it.  Such a sum must stay idle, since one
    run of it must not report ``SUBSUMED`` while it does not sleep."""
    oracle = _Oracle(monkeypatch)
    model = Model()
    bs = [model.new_bool_var(decision=True) for _ in range(8)]
    post_bool_sum(model, bs[:6], LEQ, 2)
    post_bool_sum(model, bs[2:], GEQ, 3)
    counts = set()
    for restore, queue in itertools.product(
        (RestoreMode.trail(), RestoreMode.copy_recompute(8)), Engine.POLICIES
    ):
        solutions, _ = solve(model, mode="all", restore=restore, queue=queue)
        counts.add(len(solutions))
    expected = sum(
        sum(v[:6]) <= 2 and sum(v[2:]) >= 3 for v in itertools.product((0, 1), repeat=8)
    )
    assert counts == {expected}
    assert oracle.checked > 6 * expected
    assert oracle.mismatches == []
    assert oracle.sleep_mismatches == []

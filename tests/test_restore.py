import pytest

from fdlab.domain import ASLEEP, IDLE, Op, VariableStore
from fdlab.problems import build, parse_instance
from fdlab.restore import RecomputeBackend, RestoreMode, TrailBackend, make_backend
from fdlab.search import minimize, solve

from shadow import ShadowBackend, shadow_backends


def _store_with_vars():
    store = VariableStore()
    xs = [store.new_int_var(0, 9) for _ in range(3)]
    b = store.new_bool_var()
    return store, xs, b


def test_restore_mode_constructors():
    """A mode is one distance: none trails, and copying is recomputation at
    distance 1, so the two constructors build equal modes."""
    assert RestoreMode() == RestoreMode.trail()
    assert (RestoreMode().variant, RestoreMode().distance) == ("trail", None)
    assert RestoreMode.copy() == RestoreMode.copy_recompute(1) == RestoreMode(1)
    assert RestoreMode.copy().variant == "copy"
    cr = RestoreMode.copy_recompute(8)
    assert (cr.variant, cr.distance) == ("copy-recompute", 8)
    assert isinstance(make_backend(RestoreMode(), VariableStore(), None), TrailBackend)
    backend = make_backend(RestoreMode.copy(), VariableStore(), None)
    assert isinstance(backend, RecomputeBackend) and backend.distance == 1


@pytest.mark.parametrize(
    "args",
    [(0,), (-1,), (-3,), (2.5,), (1.0,), ("8",), ("copy",), ("trail",), ([8],)],
)
def test_restore_mode_rejects_bad_values_when_built(args):
    """A distance that is not an integer, or is below 1, is refused."""
    with pytest.raises(ValueError):
        RestoreMode(*args)


def test_restore_mode_keeps_a_plain_int_distance():
    """An integer-like distance is stored as an int: True reads as 1."""
    mode = RestoreMode(True)
    assert type(mode.distance) is int and mode.distance == 1
    assert mode == RestoreMode.copy() and mode.variant == "copy"


def test_trail_restores_exact_state():
    """A node trails each variable it changes once: xs[1], narrowed twice,
    takes one entry."""
    store, xs, b = _store_with_vars()
    backend = TrailBackend(store)
    before = store.snapshot_blob()
    backend.open_node([])
    store.narrow(xs[0], Op.ASSIGN, 3)
    store.narrow(xs[1], Op.REMOVE, 5)
    store.narrow(xs[1], Op.MAX, 7)
    store.narrow(b, Op.ASSIGN, 1)
    assert backend.stats.trail_entries == 3
    backend.backtrack_to(0)
    assert store.snapshot_blob() == before  # the cached bounds too
    # undone changes still count, and later ones add to them
    assert backend.stats.trail_entries == 3
    store.narrow(xs[2], Op.MIN, 2)
    assert backend.stats.trail_entries == 4


def test_trail_takes_whole_state_once_per_frame():
    """The first change of an integer variable in a frame trails its whole
    state; a later one in the same frame trails nothing, and the next frame
    trails it again."""
    store, xs, _ = _store_with_vars()
    store.trail = []
    x, y = xs[0], xs[1]
    store.narrow(y, Op.REMOVE, 4)  # before any mark: trailed too
    mark = store.mark()
    store.narrow(x, Op.REMOVE, 5)
    store.narrow(x, Op.MAX, 7)
    store.narrow(y, Op.MIN, 2)
    store.narrow(x, Op.ASSIGN, 3)
    assert store.trail == [(y, 0b1111111111, 0, 9),
                           (x, 0b1111111111, 0, 9), (y, 0b1111101111, 0, 9)]
    store.mark()
    store.narrow(x, Op.ASSIGN, 3)  # no change: nothing trailed
    store.narrow(y, Op.MAX, 6)
    assert store.trail[3:] == [(y, 0b1111101100, 2, 9)]
    store.undo(mark)
    assert store.trail == [(y, 0b1111111111, 0, 9)]
    assert store.domain_values(x) == list(range(10))
    assert store.domain_values(y) == [0, 1, 2, 3, 5, 6, 7, 8, 9]
    assert (store.min(y), store.max(y), store.size(y)) == (0, 9, 9)


def test_reopened_node_at_an_undone_length_restores_its_changes():
    """A node that opens at the trail length of a node just undone must
    trail its own first changes, so that its backtrack restores them; a
    frame id taken from the trail's length would skip them."""
    store, xs, _ = _store_with_vars()
    backend = TrailBackend(store)
    store.narrow(xs[2], Op.MAX, 8)  # the root's change
    before = store.snapshot_blob()
    backend.open_node([])
    store.narrow(xs[0], Op.MAX, 5)
    backend.backtrack_to(0)
    assert store.snapshot_blob() == before
    backend.open_node([])
    assert backend.frames == [1]  # the undone node's mark
    store.narrow(xs[0], Op.MAX, 4)
    store.narrow(xs[2], Op.MAX, 7)
    backend.backtrack_to(0)
    assert store.snapshot_blob() == before


def test_change_after_undo_before_next_mark_is_undone():
    """``undo`` starts a new frame: a variable trailed in the undone frame
    and changed again before the next ``mark`` is trailed again, so an
    outer undo restores it."""
    store, xs, _ = _store_with_vars()
    store.trail = []
    before = store.snapshot_blob()
    outer = store.mark()
    inner = store.mark()
    store.narrow(xs[0], Op.MAX, 8)
    store.undo(inner)
    store.narrow(xs[0], Op.MAX, 6)
    assert store.trail == [(xs[0], 0b1111111111, 0, 9)]
    store.undo(outer)
    assert store.snapshot_blob() == before


class _FrameChecked(ShadowBackend):
    """A shadowed trailing backend that asserts, whenever a node opens or
    a backtrack starts, that the frame just closed trailed no integer
    variable twice."""

    def __init__(self, primary):
        super().__init__(primary)
        self.frames_checked = 0

    def _check(self):
        frames, trail = self.primary.frames, self.primary.trail
        start = frames[-1] if frames else 0
        ints = [entry[0] for entry in trail[start:] if len(entry) == 4]
        assert len(ints) == len(set(ints))
        self.frames_checked += 1

    def open_node(self, actions):
        self._check()
        super().open_node(actions)

    def backtrack_to(self, target):
        self._check()
        return super().backtrack_to(target)


@pytest.mark.parametrize("name", ["queens:8", "golomb:6", "magic:3"])
def test_no_frame_trails_an_integer_variable_twice(name, monkeypatch):
    backends = shadow_backends(monkeypatch, wrap=_FrameChecked)
    model = build(parse_instance(name))
    if name.startswith("golomb"):
        best, stats = minimize(model)
        assert best is not None
    else:
        _, stats = solve(model, mode="all")
    assert stats.backtracks > 0
    assert backends[0].frames_checked > stats.nodes
    assert backends[0].mismatches == 0


def test_trail_restores_multiple_levels():
    store, xs, _ = _store_with_vars()
    backend = TrailBackend(store)
    blobs = []
    for level in range(4):
        blobs.append(store.snapshot_blob())
        backend.open_node([])
        store.narrow(xs[level % 3], Op.REMOVE, level)
    backend.backtrack_to(2)
    assert store.snapshot_blob() == blobs[2]
    backend.backtrack_to(0)
    assert store.snapshot_blob() == blobs[0]


def test_copy_bytes_accounting():
    store, xs, _ = _store_with_vars()
    backend = make_backend(RestoreMode.copy(), store, replay=None)
    assert isinstance(backend, RecomputeBackend) and backend.distance == 1
    blobs = []
    for _ in range(5):
        blobs.append(store.snapshot_blob())
        backend.open_node([])
        store.narrow(xs[0], Op.REMOVE, store.max(xs[0]))
    backend.backtrack_to(2)
    assert store.snapshot_blob() == blobs[2]
    assert backend.stats.recomputations == 0
    assert backend.stats.snapshots_taken == 5
    assert backend.stats.bytes_copied == 5 * store.region_bytes
    assert backend.stats.trail_entries == 0


def test_recompute_snapshot_cadence():
    store, xs, _ = _store_with_vars()
    backend = RecomputeBackend(store, replay=lambda actions: None, distance=8)
    for _ in range(16):
        backend.open_node([])
    # snapshots at depths 0 and 8 only
    assert backend.stats.snapshots_taken == 2
    assert [i for i, f in enumerate(backend.frames) if f.snapshot is not None] == [0, 8]


def test_recompute_distance_one_copies_like_copy():
    def run(mode):
        model = build(parse_instance("queens:6"))
        _, stats = solve(model, mode="all", restore=mode)
        return stats

    copy = run(RestoreMode.copy())
    dist1 = run(RestoreMode.copy_recompute(1))
    assert dist1.restore.bytes_copied == copy.restore.bytes_copied
    assert dist1.restore.snapshots_taken == copy.restore.snapshots_taken
    assert dist1.restore.recomputations == 0
    assert (dist1.nodes, dist1.backtracks) == (copy.nodes, copy.backtracks)


def test_recompute_replays_decisions():
    model = build(parse_instance("queens:6"))
    _, stats = solve(model, mode="all", restore=RestoreMode.copy_recompute(8))
    assert stats.restore.recomputations > 0
    assert stats.restore.replayed_decisions >= stats.restore.recomputations


def test_adaptive_midpoint_snapshot():
    """With a huge distance, every retreat over two frames or more plants a
    midpoint snapshot."""
    model = build(parse_instance("queens:8"))
    _, stats = solve(model, mode="first", restore=RestoreMode.copy_recompute(1000))
    assert stats.restore.recomputations > 0
    # more snapshots than the root-only cadence would take
    assert stats.restore.snapshots_taken > 1


def _replayer(store, calls):
    """A ``replay`` that applies its actions to ``store`` and records them
    in ``calls``."""

    def replay(actions):
        calls.append(actions)
        for op, var, value in actions:
            store.narrow(var, op, value)

    return replay


def _recorded_replays(path, target, distance=1000):
    """Open ``path`` nodes under recomputation, with no snapshot past the
    root at the default ``distance``, where the node at depth ``i`` removes
    ``i`` from one variable, and backtrack to ``target`` with a ``replay``
    that records its calls.  Returns the calls, the returned tail, the
    backend and the store before each node."""
    store, xs, _ = _store_with_vars()
    calls = []
    replay = _replayer(store, calls)
    backend = RecomputeBackend(store, replay, distance=distance)
    blobs = []
    for i in range(path):
        blobs.append(store.snapshot_blob())
        actions = [(Op.REMOVE, xs[0], i)]
        backend.open_node(actions)
        replay(actions)
    calls.clear()
    tail = backend.backtrack_to(target)
    return calls, tail, backend, blobs


def _values(actions):
    return [value for _, _, value in actions]


def test_replay_below_adaptive_is_one_segment():
    """A path of one frame has no midpoint past its snapshot, so it is one
    segment, and the last segment is not replayed: it comes back as the
    tail, that frame's actions, over the root's state.  The counters count
    its frame."""
    calls, tail, backend, blobs = _recorded_replays(6, 1)
    assert calls == []
    assert _values(tail) == [0]
    assert backend.store.snapshot_blob() == blobs[0]
    assert [i for i, f in enumerate(backend.frames) if f.snapshot is not None] == [0]
    stats = backend.stats
    assert (stats.snapshots_taken, stats.recomputations, stats.replayed_decisions) == (1, 1, 1)


def test_replay_splits_only_at_the_midpoint_snapshot():
    """A path of two frames or more from the snapshot at ``k`` splits at
    ``mid = k + (target - k) // 2``, where the midpoint snapshot is taken:
    one replay call over ``[k:mid]``, so that the snapshot holds the state
    that call reached, and ``[mid:target]`` as the tail; the counters count
    frames as before."""
    calls, tail, backend, blobs = _recorded_replays(9, 7)
    assert [_values(actions) for actions in calls] == [[0, 1, 2]]
    assert _values(tail) == [3, 4, 5, 6]
    assert [i for i, f in enumerate(backend.frames) if f.snapshot is not None] == [0, 3]
    assert backend.frames[3].snapshot == blobs[3]
    assert backend.store.snapshot_blob() == blobs[3]
    stats = backend.stats
    assert (stats.snapshots_taken, stats.recomputations, stats.replayed_decisions) == (2, 1, 7)
    # The same retreat again starts at the midpoint snapshot: a tail alone.
    calls.clear()
    backend.open_node([])
    assert _values(backend.backtrack_to(4)) == [3]
    assert calls == []
    assert backend.store.snapshot_blob() == blobs[3]


def test_backtrack_to_a_snapshot_due_depth_returns_no_tail():
    """The frame at a depth that is a multiple of ``distance`` took a
    snapshot when it opened, so a backtrack there loads it, replays
    nothing and leaves no tail: the node that opens there and snapshots
    the store never does so over a pending tail.  A target between
    snapshots, 7, recomputes from the one at 4 and splits at its midpoint,
    5, as a path from the root does."""
    calls, tail, backend, blobs = _recorded_replays(9, 8, distance=4)
    assert (calls, tail) == ([], ())
    assert backend.store.snapshot_blob() == blobs[8]
    backend.open_node([])  # depth 8 snapshots again
    assert backend.frames[8].snapshot == blobs[8]
    stats = backend.stats
    assert (stats.snapshots_taken, stats.recomputations, stats.replayed_decisions) == (4, 0, 0)
    calls, tail, backend, blobs = _recorded_replays(9, 7, distance=4)
    assert [_values(actions) for actions in calls] == [[4]]
    assert _values(tail) == [5, 6]
    assert [i for i, f in enumerate(backend.frames) if f.snapshot is not None] == [0, 4, 5]
    assert backend.store.snapshot_blob() == blobs[5]


@pytest.mark.parametrize("name", ["bibd:6,3,2", "bibd:7,3,2"])
@pytest.mark.parametrize("distance", [8, 32])
def test_batched_replay_restores_the_pid_states(name, distance, monkeypatch):
    """A replayed segment takes one fixpoint, so a propagator that slept
    by the order of its events rather than by the domains would come back
    in another state; these first solutions showed it."""
    shadows = shadow_backends(monkeypatch)
    solve(build(parse_instance(name)), restore=RestoreMode.copy_recompute(distance))
    assert shadows[0].stats.recomputations > 0
    assert shadows[0].mismatches == 0


def test_shadow_backend_detects_mismatch():
    """A backend that forgets a trailed change, restores a mask but leaves
    its cached lower bound stale, leaves a subsumed pid asleep, or drops
    one frame's actions from its tail counts exactly one mismatch at its
    backtrack."""

    def forget_a_change(trail):
        trail.pop(0)

    def leave_lo_stale(trail):
        var, mask, _, hi = trail[0]
        trail[0] = (var, mask, 3, hi)  # lo as the node left it

    def leave_pid_asleep(trail):
        trail.pop()  # the subsumption, trailed last

    class Broken(TrailBackend):
        def backtrack_to(self, target):
            spoil(self.trail)
            super().backtrack_to(target)

    for spoil in (forget_a_change, leave_lo_stale, leave_pid_asleep):
        store, xs, _ = _store_with_vars()
        store._state = bytearray(2)
        shadow = ShadowBackend(Broken(store))
        shadow.open_node([])
        store.narrow(xs[0], Op.ASSIGN, 3)
        store.narrow(xs[1], Op.ASSIGN, 4)
        store._state[1] = ASLEEP
        store.trail.append((store._state, 1, IDLE))
        shadow.backtrack_to(0)
        assert shadow.mismatches == 1, spoil.__name__

    class DropsAFrame(RecomputeBackend):
        def backtrack_to(self, target):
            return super().backtrack_to(target)[:-1]  # the last frame's action

    for backend in (RecomputeBackend, DropsAFrame):
        store, xs, _ = _store_with_vars()
        shadow = ShadowBackend(backend(store, _replayer(store, []), distance=1000))
        for i in range(3):
            shadow.open_node([(Op.REMOVE, xs[0], i)])
            store.narrow(xs[0], Op.REMOVE, i)
        # Frame 0 is replayed before the midpoint snapshot at frame 1;
        # frame 1 is the tail.
        assert len(shadow.backtrack_to(2)) == (1 if backend is RecomputeBackend else 0)
        assert shadow.mismatches == (backend is DropsAFrame), backend.__name__

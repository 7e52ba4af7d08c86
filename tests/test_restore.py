import pytest

from fdlab.domain import Op, VariableStore
from fdlab.problems import build, parse_instance
from fdlab.restore import (
    RecomputeBackend,
    RestoreMode,
    ShadowBackend,
    TrailBackend,
    make_backend,
)
from fdlab.search import solve


def _store_with_vars():
    store = VariableStore()
    xs = [store.new_int_var(0, 9) for _ in range(3)]
    b = store.new_bool_var()
    return store, xs, b


def test_restore_mode_constructors():
    assert RestoreMode.trail().variant == "trail"
    assert RestoreMode.copy().variant == "copy"
    cr = RestoreMode.copy_recompute(8, adaptive=4)
    assert (cr.variant, cr.distance, cr.adaptive) == ("copy-recompute", 8, 4)
    with pytest.raises(ValueError):
        RestoreMode.copy_recompute(0)
    with pytest.raises(ValueError):
        make_backend(RestoreMode("nope"), None, None)


@pytest.mark.parametrize(
    "args",
    [
        ("copy-recompute", 0),
        ("copy", 5),
        ("trail", -3),
        ("copy-recompute", 4, 0),
        ("bogus",),
        ("trail", 1, 9),
        ("copy", 1, 7),
    ],
)
def test_restore_mode_rejects_bad_values_when_built(args):
    with pytest.raises(ValueError):
        RestoreMode(*args)


def test_trail_restores_exact_state():
    store, xs, b = _store_with_vars()
    backend = TrailBackend(store)
    before = store.snapshot_blob()
    backend.open_node([])
    store.narrow(xs[0], Op.ASSIGN, 3)
    store.narrow(xs[1], Op.REMOVE, 5)
    store.narrow(xs[1], Op.MAX, 7)
    store.narrow(b, Op.ASSIGN, 1)
    assert backend.stats.trail_entries == 4
    backend.backtrack_to(0)
    assert store.domains_equal(before)
    # undone changes still count, and later ones add to them
    assert backend.stats.trail_entries == 4
    store.narrow(xs[2], Op.MIN, 2)
    assert backend.stats.trail_entries == 5


def test_trail_restores_multiple_levels():
    store, xs, _ = _store_with_vars()
    backend = TrailBackend(store)
    blobs = []
    for level in range(4):
        blobs.append(store.snapshot_blob())
        backend.open_node([])
        store.narrow(xs[level % 3], Op.REMOVE, level)
    backend.backtrack_to(2)
    assert store.domains_equal(blobs[2])
    backend.backtrack_to(0)
    assert store.domains_equal(blobs[0])


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
    assert store.domains_equal(blobs[2])
    assert backend.stats.recomputations == 0
    assert backend.stats.snapshots_taken == 5
    assert backend.stats.bytes_copied == 5 * store.region_bytes
    assert backend.stats.trail_entries == 0


def test_recompute_snapshot_cadence():
    store, xs, _ = _store_with_vars()
    backend = RecomputeBackend(store, replay=lambda depth, actions: None, distance=8)
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
    """With a huge distance, every long retreat plants a midpoint snapshot."""
    model = build(parse_instance("queens:8"))
    _, stats = solve(
        model, mode="first", restore=RestoreMode.copy_recompute(1000, adaptive=2)
    )
    assert stats.restore.recomputations > 0
    # more snapshots than the root-only cadence would take
    assert stats.restore.snapshots_taken > 1


def test_shadow_backend_detects_mismatch():
    store, xs, _ = _store_with_vars()

    class Broken(TrailBackend):
        def backtrack_to(self, target):
            # deliberately forget one trailed change
            if self.trail:
                self.trail.pop(0)
            super().backtrack_to(target)

    shadow = ShadowBackend(Broken(store))
    shadow.open_node([])
    store.narrow(xs[0], Op.ASSIGN, 3)
    store.narrow(xs[1], Op.ASSIGN, 4)
    shadow.backtrack_to(0)
    assert shadow.mismatches == 1

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from fdlab.constraints import EQ, GEQ, LEQ, post_bool_and, post_bool_sum, post_le, post_lex_leq
from fdlab.model import BOOL_INT, BOOL_NATIVE, SUM_DECOMPOSED, SUM_NATIVE, Model, ModelError
from fdlab.problems import build, check_solution, parse_instance
from fdlab.propagate import Engine
from fdlab.restore import RestoreMode
from fdlab.domain import Op
from fdlab.search import _Search, minimize, solve

# -- independent oracles ------------------------------------------------


def queens_oracle(n):
    """Count n-queens placements by filtering permutations."""
    count = 0
    for perm in itertools.permutations(range(n)):
        if all(
            abs(perm[i] - perm[j]) != j - i
            for i, j in itertools.combinations(range(n), 2)
        ):
            count += 1
    return count


def magic_oracle(n):
    """Count magic squares of order n satisfying the posted corner ordering
    (smallest corner top-left, top-right before bottom-left)."""
    nn = n * n
    magic = n * (nn + 1) // 2
    count = 0
    for perm in itertools.permutations(range(1, nn + 1)):
        rows = [perm[i * n : (i + 1) * n] for i in range(n)]
        if any(sum(row) != magic for row in rows):
            continue
        if any(sum(rows[i][j] for i in range(n)) != magic for j in range(n)):
            continue
        if sum(rows[i][i] for i in range(n)) != magic:
            continue
        if sum(rows[i][n - 1 - i] for i in range(n)) != magic:
            continue
        corners = (rows[0][0], rows[0][n - 1], rows[n - 1][0], rows[n - 1][n - 1])
        if corners[0] != min(corners) or corners[1] > corners[2]:
            continue
        count += 1
    return count


def golomb_oracle(m):
    """Shortest ruler length by plain depth-first search over tick
    placements with distinct pairwise differences."""
    best = m * m

    def place(ticks, diffs):
        nonlocal best
        if len(ticks) == m:
            best = min(best, ticks[-1])
            return
        remaining = m - len(ticks)
        for t in range(ticks[-1] + 1, best - remaining + 2):
            new = [t - prev for prev in ticks]
            if len(set(new)) == len(new) and not diffs & set(new):
                place(ticks + [t], diffs | set(new))

    place([0], set())
    return best


# -- enumeration --------------------------------------------------------


@pytest.mark.parametrize("n,expected", [(1, 1), (4, 2), (5, 10), (6, 4)])
def test_queens_all_solutions_match_oracle(n, expected):
    assert queens_oracle(n) == expected
    inst = parse_instance(f"queens:{n}")
    sols, stats = solve(build(inst), mode="all")
    assert len(sols) == expected
    assert stats.solutions == expected
    assert len({s.values for s in sols}) == expected
    for s in sols:
        assert check_solution(inst, s.values) is None


def test_magic3_unique_solution():
    assert magic_oracle(3) == 1
    inst = parse_instance("magic:3")
    sols, _ = solve(build(inst), mode="all")
    assert len(sols) == 1
    assert check_solution(inst, sols[0].values) is None


def test_magic1_builds_and_solves():
    assert magic_oracle(1) == 1
    inst = parse_instance("magic:1")
    sols, _ = solve(build(inst), mode="all")
    assert [s.values for s in sols] == [(1,)]
    assert check_solution(inst, sols[0].values) is None


def test_first_mode_stops_at_one():
    sols, stats = solve(build(parse_instance("queens:6")), mode="first")
    assert len(sols) == 1
    assert stats.solutions == 1


def test_infeasible_returns_empty():
    sols, stats = solve(build(parse_instance("queens:3")), mode="all")
    assert sols == []
    assert stats.solutions == 0
    assert stats.nodes > 0


def test_infeasible_minimize_returns_none():
    """x, y, z in 0..1 cannot all differ, but the root propagates, so both
    branch-and-bound modes search the same tree and find no incumbent."""
    from fdlab.constraints import post_alldifferent

    results = []
    for bnb in ("tighten", "post"):
        model = Model()
        xs = [model.new_int_var(0, 1, decision=True) for _ in range(3)]
        post_alldifferent(model, xs)
        model.objective = xs[0]
        best, stats = minimize(model, bnb=bnb)
        assert best is None and stats.solutions == 0 and stats.nodes > 0
        results.append((stats.nodes, stats.fingerprint))
    assert results[0] == results[1]


@pytest.mark.parametrize("restore", ["copy", None, 8, "trail"])
def test_restore_that_is_not_a_mode_rejected(restore):
    """A bad ``restore`` is refused with ValueError before the solve starts,
    not met as an AttributeError inside the backend."""
    with pytest.raises(ValueError, match="RestoreMode"):
        solve(build(parse_instance("queens:4")), restore=restore)
    with pytest.raises(ValueError, match="RestoreMode"):
        minimize(build(parse_instance("golomb:4")), restore=restore)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        solve(build(parse_instance("queens:4")), mode="some")
    with pytest.raises(ValueError):
        minimize(build(parse_instance("golomb:4")), bnb="restart")


def test_minimize_requires_objective(monkeypatch):
    """The missing objective is refused before the solve builds its engine."""
    built = []
    init = Engine.__init__

    def counting_init(eng, store, *args):
        built.append(store)
        init(eng, store, *args)

    monkeypatch.setattr(Engine, "__init__", counting_init)
    model = build(parse_instance("queens:4"))
    with pytest.raises(ValueError, match="objective"):
        minimize(model)
    assert built == []
    solve(model)
    assert built == [model.store]


def test_minimize_names_an_objective_a_solution_leaves_unfixed():
    """x fixed leaves y in x..5: the error names the objective, not a
    variable lookup."""
    model = Model()
    x = model.new_int_var(0, 3, decision=True)
    y = model.new_int_var(0, 5)
    post_le(model, x, y)
    model.objective = y
    with pytest.raises(ModelError, match=f"objective {y} is not fixed when every decision"):
        minimize(model)


def test_stats_are_consistent():
    _, stats = solve(build(parse_instance("queens:6")), mode="all")
    assert stats.nodes > stats.backtracks > 0
    assert stats.solve_ms > 0
    assert stats.setup_ms > 0


def test_fingerprint_sees_what_the_counts_miss():
    """Trees with equal counts but other branching positions or values get
    other fingerprints; one tree gets one fingerprint under every backend."""
    from fdlab.model import Model

    def first(lo, skip):
        model = Model()
        if skip:
            model.new_int_var(5, 5, decision=True)  # fixed: never branched on
        model.new_int_var(lo, lo + 1, decision=True)
        _, stats = solve(model, mode="first")
        return (stats.nodes, stats.backtracks, stats.solutions), stats.fingerprint

    counts = {first(lo, skip)[0] for lo in (0, 1) for skip in (False, True)}
    prints = {first(lo, skip)[1] for lo in (0, 1) for skip in (False, True)}
    assert counts == {(1, 0, 1)} and len(prints) == 4
    prints = {
        solve(build(parse_instance("queens:6")), mode="all", restore=r)[1].fingerprint
        for r in (RestoreMode.trail(), RestoreMode.copy(), RestoreMode.copy_recompute(2))
    }
    assert len(prints) == 1


# -- optimization -------------------------------------------------------


@pytest.mark.parametrize("m,expected", [(1, 0), (2, 1), (4, 6), (5, 11), (6, 17)])
def test_golomb_optimum_matches_oracle(m, expected):
    assert golomb_oracle(m) == expected
    inst = parse_instance(f"golomb:{m}")
    best, stats = minimize(build(inst))
    assert best.objective == expected
    assert best.values[-1] == expected
    assert check_solution(inst, best.values) is None
    assert stats.solutions >= 1  # number of incumbents found


@pytest.mark.parametrize("m", [5, 6, 7])
def test_bnb_modes_agree(m):
    inst = parse_instance(f"golomb:{m}")
    best_t, stats_t = minimize(build(inst), bnb="tighten")
    best_p, stats_p = minimize(build(inst), bnb="post")
    assert best_t.objective == best_p.objective
    assert stats_t.nodes == stats_p.nodes
    assert stats_t.backtracks == stats_p.backtracks
    assert stats_t.fingerprint == stats_p.fingerprint


@pytest.mark.parametrize(
    "restore",
    [RestoreMode.trail(), RestoreMode.copy(), RestoreMode.copy_recompute(8)],
    ids=["trail", "copy", "cr8"],
)
def test_minimize_under_all_backends(restore):
    best, _ = minimize(build(parse_instance("golomb:6")), restore=restore)
    assert best.objective == 17


# -- one model, many solves --------------------------------------------


def _assert_model_untouched(model, blob, n_props):
    assert model.store.snapshot_blob() == blob
    assert len(model.props) == n_props
    assert model.store.trail is None
    assert not hasattr(model, "engine")


def test_solving_a_model_twice_finds_the_same_solutions():
    model = build(parse_instance("queens:6"))
    blob, n_props = model.store.snapshot_blob(), len(model.props)
    for restore in (
        RestoreMode.trail(),
        RestoreMode.trail(),
        RestoreMode.copy_recompute(2),
    ):
        sols, _ = solve(model, mode="all", restore=restore)
        assert len(sols) == 4
        _assert_model_untouched(model, blob, n_props)


def test_solving_a_boolean_model_twice_finds_the_same_solution():
    """Every solve must copy the Boolean cells, in its engine and in each
    snapshot, rather than share the model's byte array."""
    model = build(parse_instance("golfers:2,3,3+ext"))
    assert len(model.store._bstate) > 0
    blob, n_props = model.store.snapshot_blob(), len(model.props)
    found = []
    for restore in (
        RestoreMode.trail(),
        RestoreMode.trail(),
        RestoreMode.copy(),
        RestoreMode.copy_recompute(2),
    ):
        sols, stats = solve(model, restore=restore)
        assert len(sols) == 1 and stats.backtracks > 0
        found.append(sols[0])
        _assert_model_untouched(model, blob, n_props)
    assert found == [found[0]] * 4


@pytest.mark.parametrize("bnb", ["post", "tighten"])
def test_minimizing_a_model_twice_finds_the_same_optimum(bnb):
    model = build(parse_instance("golomb:5"))
    blob, n_props = model.store.snapshot_blob(), len(model.props)
    for _ in range(2):
        best, _ = minimize(model, bnb=bnb)
        assert best is not None and best.objective == 11
        _assert_model_untouched(model, blob, n_props)


def replay_error():
    """Replay a path that cannot be followed and return what it raised.  A
    replay fails only when a backend restored the wrong state; that must
    stop the search, also under ``python -O``."""
    model = build(parse_instance("queens:4"))
    search = _Search(model, RestoreMode.copy_recompute(2), "fifo", "first")
    try:
        search._replay([(Op.ASSIGN, model.decision_vars[0], 99)])
    except Exception as exc:
        return exc
    return None


def test_failed_replay_raises():
    exc = replay_error()
    assert isinstance(exc, RuntimeError) and "replay failed" in str(exc)


# -- checker sensitivity ------------------------------------------------


def test_checker_catches_perturbed_solutions():
    inst = parse_instance("queens:6")
    (sol,), _ = solve(build(inst), mode="first")
    values = list(sol.values)
    # clone another queen's column: a guaranteed violation
    values[0] = values[1]
    assert check_solution(inst, tuple(values)) is not None


def test_checker_catches_perturbed_golfers():
    inst = parse_instance("golfers:2,3,3")
    (sol,), _ = solve(build(inst), mode="first")
    values = list(sol.values)
    values[0] = 1 - values[0]
    assert check_solution(inst, tuple(values)) is not None


# -- Boolean modes, differentially --------------------------------------


@st.composite
def _bool_models(draw):
    """3-6 cells and 1-4 constraints among Boolean sums of each relation
    (over distinct cells, maybe pair-counted), ``and`` and lex; ``and``
    and lex may repeat cells."""
    n = draw(st.integers(3, 6))
    cell = st.integers(0, n - 1)
    cons = []
    for kind in draw(st.lists(st.sampled_from(["sum", "and", "lex"]), min_size=1, max_size=4)):
        if kind == "sum":
            members = draw(st.lists(cell, min_size=1, max_size=n, unique=True))
            rel = draw(st.sampled_from([EQ, LEQ, GEQ]))
            cons.append((kind, members, rel, draw(st.integers(0, len(members))), draw(st.booleans())))
        elif kind == "and":
            cons.append((kind, draw(cell), draw(cell), draw(cell)))
        else:
            xs = draw(st.lists(cell, min_size=1, max_size=3))
            ys = draw(st.lists(cell, min_size=len(xs), max_size=len(xs)))
            cons.append((kind, xs, ys))
    return n, cons


def _post_bool_model(n, cons, bool_mode, sum_mode):
    model = Model(bool_mode=bool_mode, sum_mode=sum_mode)
    cells = [model.new_01_var(decision=True) for _ in range(n)]
    for kind, *args in cons:
        if kind == "sum":
            members, rel, c, pair_counted = args
            post_bool_sum(model, [cells[i] for i in members], rel, c, pair_counted=pair_counted)
        elif kind == "and":
            post_bool_and(model, *(cells[i] for i in args))
        else:
            xs, ys = args
            post_lex_leq(model, [cells[i] for i in xs], [cells[i] for i in ys])
    return model


def _holds(values, cons):
    for kind, *args in cons:
        if kind == "sum":
            members, rel, c, _ = args
            total = sum(values[i] for i in members)
            if rel == EQ and total != c or rel == LEQ and total > c or rel == GEQ and total < c:
                return False
        elif kind == "and":
            z, x, y = args
            if values[z] != (values[x] & values[y]):
                return False
        else:
            xs, ys = args
            if [values[i] for i in xs] > [values[i] for i in ys]:
                return False
    return True


@settings(max_examples=500, deadline=None)
@given(_bool_models())
def test_boolean_modes_explore_one_tree(case):
    """Native Booleans wake a one-sided sum or lex on one value only; {0..1}
    integers wake everything on bounds events.  Under both Boolean modes,
    both sum modes and every queue policy, ``all`` mode finds exactly the
    brute-force solutions over the same tree: nodes, backtracks and
    fingerprint agree."""
    n, cons = case
    brute = {v for v in itertools.product((0, 1), repeat=n) if _holds(v, cons)}
    trees = set()
    for bool_mode, sum_mode, queue in itertools.product(
        (BOOL_NATIVE, BOOL_INT), (SUM_NATIVE, SUM_DECOMPOSED), Engine.POLICIES
    ):
        sols, stats = solve(_post_bool_model(n, cons, bool_mode, sum_mode), mode="all", queue=queue)
        assert {s.values for s in sols} == brute and len(sols) == len(brute)
        trees.add((stats.nodes, stats.backtracks, stats.fingerprint))
    assert len(trees) == 1

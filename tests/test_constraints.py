import pytest
from hypothesis import example, given, settings, strategies as st

from fdlab.constraints import (
    EQ,
    GEQ,
    LEQ,
    BoolSumProp,
    DiffProp,
    IntLexLeqProp,
    LeProp,
    LexLeqProp,
    LinearProp,
    PostError,
    post_alldifferent,
    post_bool_and,
    post_bool_sum,
    post_fix,
    post_le,
    post_lex_leq,
    post_linear,
    post_ne_const,
)
from fdlab.domain import BOUNDS_CHANGED, FAILED, Op
from fdlab.model import BOOL_INT, BOOL_NATIVE, SUM_DECOMPOSED, SUM_NATIVE, Model, ModelError
from fdlab.propagate import AT_FIXPOINT, PROP_FAILED, SUBSUMED, Engine
from fdlab.propagate import PRIORITY_GLOBAL


def _fix(model):
    """Run the model's propagators to their fixpoint on an engine over the
    model; returns the engine, which holds the fixpoint's domains, or None
    when a domain emptied."""
    eng = Engine(model.store, model.props)
    eng.schedule_all()
    return eng if eng.fixpoint() else None


def test_linear_eq_prunes_both_sides():
    model = Model()
    x = model.new_int_var(0, 5)
    y = model.new_int_var(3, 5)
    post_linear(model, [(1, x), (1, y)], EQ, 5)
    eng = _fix(model)
    assert eng
    assert eng.domain_values(x) == [0, 1, 2]
    assert eng.domain_values(y) == [3, 4, 5]


def test_linear_negative_coefficients():
    model = Model()
    x = model.new_int_var(0, 9)
    y = model.new_int_var(0, 9)
    d = model.new_int_var(-9, 9)
    post_linear(model, [(1, d), (-1, x), (1, y)], EQ, 0)  # d = x - y
    post_fix(model, x, 7)
    post_fix(model, y, 2)
    eng = _fix(model)
    assert eng
    assert eng.value(d) == 5


def test_linear_detects_failure():
    model = Model()
    x = model.new_int_var(0, 2)
    y = model.new_int_var(0, 2)
    post_linear(model, [(1, x), (1, y)], GEQ, 5)
    assert not _fix(model)


def test_linear_rejects_bad_terms():
    model = Model()
    x = model.new_int_var(0, 5)
    with pytest.raises(PostError):
        post_linear(model, [], EQ, 0)
    with pytest.raises(PostError):
        post_linear(model, [(0, x)], EQ, 0)
    with pytest.raises(PostError):
        post_linear(model, [(1, x), (0, x)], EQ, 0)
    with pytest.raises(PostError):
        post_linear(model, [(1, x)], "neq", 0)
    b = model.new_bool_var()
    with pytest.raises(PostError):
        post_linear(model, [(1, b)], EQ, 0)


def test_posting_refuses_non_integral_numbers():
    """A fractional coefficient, constant or bound is a model error at
    posting: it is neither truncated nor left to fail inside a solve."""
    model = Model()
    x = model.new_int_var(0, 3)
    y = model.new_int_var(0, 3)
    with pytest.raises(PostError):
        post_linear(model, [(1.5, x), (1, y)], EQ, 3)
    with pytest.raises(PostError):
        post_linear(model, [(2, x)], LEQ, 2.5)
    with pytest.raises(PostError):
        post_ne_const(model, x, 1.5)
    with pytest.raises(PostError):
        post_fix(model, x, 1.0)
    with pytest.raises(PostError):
        post_bool_sum(model, [model.new_bool_var()], LEQ, 0.5)
    with pytest.raises(ModelError):
        model.new_int_var(0.5, 3)
    assert not model.props and len(model.store._mask) == 2
    assert model.store.domain_values(x) == [0, 1, 2, 3]


def test_posting_refuses_unknown_variables():
    """An id past the last integer or the last Boolean names no variable;
    every posting function refuses it before it reaches a propagator."""
    model = Model()
    x = model.new_int_var(0, 9)
    b = model.new_bool_var()
    unknown_int, unknown_bool = x + 1, b - 1
    posts = [
        lambda v: post_le(model, x, v),
        lambda v: post_alldifferent(model, [x, v]),
        lambda v: post_linear(model, [(1, x), (2, v)], LEQ, 7),
        lambda v: post_ne_const(model, v, 1),
        lambda v: post_fix(model, v, 1),
        lambda v: post_lex_leq(model, [x], [v]),
    ]
    for post in posts:
        with pytest.raises(PostError):
            post(unknown_int)
    for post in (
        lambda v: post_fix(model, v, 1),
        lambda v: post_bool_sum(model, [b, v], LEQ, 1),
        lambda v: post_bool_and(model, b, b, v),
        lambda v: post_lex_leq(model, [b], [v]),
    ):
        with pytest.raises(PostError):
            post(unknown_bool)
    with pytest.raises(PostError):
        post_le(model, x, 99)
    assert not model.props
    assert model.unaries == 0


@pytest.mark.parametrize("where", ["first", "middle"])
def test_posting_refuses_non_integral_ids(where):
    """A float id lies within the range of known ids, so a range check of
    the smallest and largest id alone would pass it; posting refuses it
    wherever it sits in the list, before anything is counted or posted."""
    model = Model()
    x, y = model.new_int_var(0, 9), model.new_int_var(0, 9)
    b, c = model.new_bool_var(), model.new_bool_var()
    f, g = 0.5, -1.5  # between integer ids, between Boolean ids

    def at(v, *rest):
        return [v, *rest] if where == "first" else [rest[0], v, *rest[1:]]

    posts = [
        lambda: post_le(model, f, y) if where == "first" else post_le(model, x, f),
        lambda: post_alldifferent(model, at(f, x, y)),
        lambda: post_linear(model, [(1, v) for v in at(f, x, y)], LEQ, 7),
        lambda: post_bool_sum(model, at(g, b, c), LEQ, 1),
        lambda: post_bool_and(model, *at(g, b, c)),
        lambda: post_lex_leq(model, at(f, x, y), [y, x, x]),
    ]
    for post in posts:
        with pytest.raises(PostError):
            post()
    assert not model.props
    assert model.unaries == 0


def test_linear_overflow_contract():
    model = Model()
    x = model.new_int_var(0, 1000)
    with pytest.raises(PostError):
        post_linear(model, [(2**55, x)], LEQ, 0)


def test_alldifferent_value_consistency():
    model = Model()
    xs = [model.new_int_var(0, 3) for _ in range(3)]
    post_alldifferent(model, xs)
    post_fix(model, xs[0], 2)
    eng = _fix(model)
    assert eng
    assert eng.domain_values(xs[1]) == [0, 1, 3]
    assert eng.domain_values(xs[2]) == [0, 1, 3]


def test_alldifferent_duplicate_assignment_fails():
    model = Model()
    xs = [model.new_int_var(1, 1), model.new_int_var(1, 1)]
    post_alldifferent(model, xs)
    assert not _fix(model)


@pytest.mark.parametrize("policy", Engine.POLICIES)
def test_alldifferent_sees_variables_fixed_before_the_solve(policy):
    """Variables fixed when the model is built count as instantiated even
    when another propagator runs first and fixes one more at the root:
    two pre-fixed equal values fail the root, and a pre-fixed value is
    removed from the others."""
    for dup in (True, False):
        model = Model()
        x = model.new_int_var(1, 1)
        y = model.new_int_var(1, 1) if dup else model.new_int_var(1, 2)
        z = model.new_int_var(0, 5)
        post_le(model, z, model.new_int_var(0, 0))  # fixes z at the root
        post_alldifferent(model, [x, y, z])
        eng = Engine(model.store, model.props, policy)
        eng.schedule_all()
        if dup:
            assert not eng.fixpoint()
        else:
            assert eng.fixpoint()
            assert [eng.domain_values(v) for v in (x, y, z)] == [[1], [2], [0]]


def test_alldifferent_rejects_bools_and_singletons():
    model = Model()
    with pytest.raises(PostError):
        post_alldifferent(model, [model.new_int_var(0, 3)])
    with pytest.raises(PostError):
        post_alldifferent(model, [model.new_bool_var(), model.new_bool_var()])
    x, y = model.new_int_var(0, 3), model.new_int_var(0, 3)
    with pytest.raises(PostError):
        post_alldifferent(model, [x, y, x])
    assert model.props == [] and model.unaries == 0


def _allowed(op, value, values):
    """The values of ``values`` that an ``ASSIGN`` or ``REMOVE`` keeps."""
    return values - {value} if op is Op.REMOVE else values & {value}


def _value_closure(doms):
    """Value-consistent alldifferent by brute force: remove every fixed
    value from the other domains until nothing moves; None when a domain
    empties."""
    doms = [set(d) for d in doms]
    moved = True
    while moved:
        moved = False
        for i, d in enumerate(doms):
            if len(d) != 1:
                continue
            (v,) = d
            for j, other in enumerate(doms):
                if j != i and v in other:
                    other.discard(v)
                    moved = True
                    if not other:
                        return None
    return doms


#: (op, variable index, value); the index is taken modulo the variable count.
_ACTION = st.tuples(
    st.sampled_from([Op.ASSIGN, Op.REMOVE]), st.integers(0, 5), st.integers(-1, 4)
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-1, 1), st.integers(0, 4)), min_size=3, max_size=6),
    st.one_of(st.none(), st.tuples(st.integers(0, 5), st.integers(-1, 4))),
    st.sampled_from(Engine.POLICIES),
    st.lists(st.lists(_ACTION, min_size=1, max_size=3), max_size=6),
    st.data(),
)
def test_alldifferent_deltas_reach_value_closure(spans, cap, policy, steps, data):
    """Random narrowings through one engine, node by node as the search
    applies them: after each fixpoint the domains are the brute-force
    closure, and a failed node is undone on the trail.
    One forced clash (two variables fixed to one value) fails a fixpoint
    halfway through, so a delta list that outlived ``Engine.clear`` would
    leave stale variables to the nodes after it.  A variable drawn with
    one value is fixed before the solve, and ``cap`` posts ``x <= c``
    ahead of the alldifferent, which may fix ``x`` at the root before the
    alldifferent first runs."""
    model = Model()
    xs = [model.new_int_var(lo, lo + w) for lo, w in spans]
    n = len(xs)
    root = [set(range(lo, lo + w + 1)) for lo, w in spans]
    if cap is not None:
        k, c = cap[0] % n, cap[1]
        post_le(model, xs[k], model.new_int_var(c, c))
        root[k] = {v for v in root[k] if v <= c}
    post_alldifferent(model, xs)
    eng = Engine(model.store, model.props, policy)
    eng.trail = []
    domains = lambda: [set(eng.domain_values(x)) for x in xs]  # noqa: E731
    eng.schedule_all()
    expected = _value_closure(root) if all(root) else None
    if expected is None:
        assert not eng.fixpoint()
        return
    assert eng.fixpoint()
    assert domains() == expected
    steps = list(steps)
    steps.insert(len(steps) // 2, None)
    for step in steps:
        before = domains()
        if step is None:  # the clash: two variables sharing a value fixed to it
            pairs = [(i, j, v) for i in range(n) for j in range(i + 1, n)
                     for v in sorted(before[i] & before[j])]
            if not pairs:
                continue
            i, j, v = data.draw(st.sampled_from(pairs))
            step = [(Op.ASSIGN, i, v), (Op.ASSIGN, j, v)]
        step = [(op, i % n, v) for op, i, v in step]
        expected = [set(d) for d in before]
        for op, i, v in step:
            expected[i] = _allowed(op, v, expected[i])
        expected = _value_closure(expected) if all(expected) else None
        mark = eng.mark()
        ok = True
        for op, i, v in step:
            if eng.narrow(xs[i], op, v) is FAILED:
                eng.clear()
                ok = False
                break
        else:
            ok = eng.fixpoint()
        if ok:
            assert domains() == expected
        else:
            assert expected is None
            eng.undo(mark)
            assert domains() == before


def test_ne_const_and_fix():
    """A unary constraint is posted as pruning of the model's domain, with
    no propagator; one that would empty the domain is refused before it is
    counted, and leaves the domain as it was."""
    model = Model()
    x = model.new_int_var(0, 3)
    y = model.new_int_var(0, 3)
    b = model.new_bool_var()
    post_ne_const(model, x, 2)
    post_fix(model, y, 1)
    post_ne_const(model, b, 0)
    assert not model.props
    assert model.unaries == 3
    assert model.store.domain_values(x) == [0, 1, 3]
    assert model.store.value(y) == 1 and model.store.value(b) == 1
    with pytest.raises(PostError):
        post_fix(model, x, 2)
    with pytest.raises(PostError):
        post_fix(model, x, 7)
    with pytest.raises(PostError):
        post_ne_const(model, y, 1)
    with pytest.raises(PostError):
        post_fix(model, b, 0)
    assert model.unaries == 3 and not model.props
    assert model.store.domain_values(x) == [0, 1, 3]
    assert model.store.value(y) == 1 and model.store.value(b) == 1
    assert _fix(model)


@pytest.mark.parametrize("post", [post_ne_const, post_fix])
@pytest.mark.parametrize(
    "var, c, message",
    [
        (1.5, 2, "unknown variable 1.5"),
        ("x", 2, "unknown variable 'x'"),
        (None, 2, "unknown variable None"),
        (0, 2.5, "constant must be an integer, got 2.5"),
        (1.5, 2.5, "constant must be an integer, got 2.5"),
    ],
)
def test_unary_post_blames_the_bad_argument(post, var, c, message):
    """A bad variable id is reported as an unknown variable, and a
    non-integral constant as such; neither is counted or pruned."""
    model = Model()
    x = model.new_int_var(0, 3)
    b = model.new_bool_var()
    with pytest.raises(PostError, match=f"^{message}$"):
        post(model, var, c)
    assert model.unaries == 0 and not model.props
    assert model.store.domain_values(x) == [0, 1, 2, 3]
    assert model.store.domain_values(b) == [0, 1]


@pytest.mark.parametrize("sum_mode", [SUM_NATIVE, SUM_DECOMPOSED])
@pytest.mark.parametrize("lo, hi", [(0, 5), (-1, 1)])
def test_bool_sum_rejects_wide_integers(sum_mode, lo, hi):
    """Over integers outside {0..1}, the decomposed mode's trivially-true
    half of a pair-counted sum would prune: x, y in 0..5 with x + y >= 1
    has 35 solutions, and its half x + y <= 2 leaves 5.  Such a sum is
    refused before it is counted, as a Boolean and is."""
    model = Model(sum_mode=sum_mode)
    x = model.new_int_var(lo, hi)
    y = model.new_int_var(0, 1)
    with pytest.raises(PostError):
        post_bool_sum(model, [x, y], GEQ, 1, pair_counted=True)
    with pytest.raises(PostError):
        post_bool_sum(model, [y, x], EQ, 1)
    assert model.unaries == 0 and not model.props


def test_le_rejects_bools():
    """A Boolean id is negative and would read the integer arrays from
    their end, so le refuses it before counting anything."""
    model = Model()
    x = model.new_int_var(0, 5)
    b = model.new_bool_var()
    with pytest.raises(PostError):
        post_le(model, x, b)
    with pytest.raises(PostError):
        post_le(model, b, x, strict=True)
    assert model.unaries == 0 and not model.props


def test_le_refuses_a_variable_strictly_below_itself():
    """x < x cannot hold; a propagator would narrow it one step per run and
    stop at x = max - 1, so posting refuses it.  x <= x holds."""
    model = Model()
    x = model.new_int_var(0, 2)
    with pytest.raises(PostError, match="cannot hold"):
        post_le(model, x, x, strict=True)
    assert not model.props
    post_le(model, x, x)
    eng = _fix(model)
    assert eng and eng.domain_values(x) == [0, 1, 2]


@settings(max_examples=60)
@given(
    st.integers(-4, 4),
    st.integers(0, 6),
    st.integers(-4, 4),
    st.integers(0, 6),
    st.booleans(),
)
def test_le_matches_linear(xlo, xw, ylo, yw, strict):
    """x <= y (x < y) prunes like the linear x - y <= 0 (x - y <= -1), and
    is entailed exactly when every point of its final box satisfies it."""

    def run(make):
        model = Model()
        x = model.new_int_var(xlo, xlo + xw)
        y = model.new_int_var(ylo, ylo + yw)
        model.add(make(x, y))
        eng = Engine(model.store, model.props)
        eng.schedule_all()
        ok = eng.fixpoint()
        doms = [eng.domain_values(v) for v in (x, y)] if ok else None
        return ok, doms, 0 in eng.subsumed

    gap = 1 if strict else 0
    ok, doms, entailed = run(lambda x, y: LeProp(x, y, strict))
    assert (ok, doms) == run(lambda x, y: LinearProp([(1, x), (-1, y)], LEQ, -gap))[:2]
    if ok:
        assert entailed == (doms[0][-1] + gap <= doms[1][0])


def test_le_strict_chain():
    model = Model()
    x = model.new_int_var(0, 5)
    y = model.new_int_var(0, 5)
    z = model.new_int_var(0, 5)
    post_le(model, x, y, strict=True)
    post_le(model, y, z, strict=True)
    eng = _fix(model)
    assert eng
    assert eng.max(x) == 3
    assert eng.min(z) == 2


@pytest.mark.parametrize("bool_mode", [BOOL_NATIVE, BOOL_INT])
def test_bool_and_truth_table(bool_mode):
    import itertools

    for vx, vy in itertools.product([0, 1], repeat=2):
        model = Model(bool_mode=bool_mode)
        z = model.new_01_var()
        x = model.new_01_var()
        y = model.new_01_var()
        post_bool_and(model, z, x, y)
        model.store.narrow(x, Op.ASSIGN, vx)
        model.store.narrow(y, Op.ASSIGN, vy)
        eng = _fix(model)
        assert eng
        assert eng.value(z) == (vx and vy)

    # Every partial assignment over {0, 1, unset}, against brute force: the
    # fixpoint fails exactly when no completion satisfies z = x and y, and
    # otherwise keeps exactly the values some completion uses.  (z, x, y)
    # are three variables, or each drawn from a pool of two, as in
    # z = x and x.
    patterns = [(0, 1, 2), *itertools.product(range(2), repeat=3)]
    for pattern in patterns:
        n = max(pattern) + 1
        for partial in itertools.product([0, 1, None], repeat=n):
            model = Model(bool_mode=bool_mode)
            pool = [model.new_01_var() for _ in range(n)]
            post_bool_and(model, *(pool[i] for i in pattern))
            for var, value in zip(pool, partial):
                if value is not None:
                    model.store.narrow(var, Op.ASSIGN, value)
            completions = [
                values
                for values in itertools.product([0, 1], repeat=n)
                if values[pattern[0]] == (values[pattern[1]] and values[pattern[2]])
                and all(p is None or p == v for p, v in zip(partial, values))
            ]
            eng = _fix(model)
            assert (eng is not None) == bool(completions), (pattern, partial)
            if eng:
                for i, var in enumerate(pool):
                    expected = sorted({c[i] for c in completions})
                    assert eng.domain_values(var) == expected, (pattern, partial)


def test_bool_and_backward_direction():
    model = Model()
    z = model.new_01_var()
    x = model.new_01_var()
    y = model.new_01_var()
    post_bool_and(model, z, x, y)
    model.store.narrow(z, Op.ASSIGN, 1)
    eng = _fix(model)
    assert eng
    assert eng.value(x) == 1 and eng.value(y) == 1

    model = Model()
    z = model.new_01_var()
    x = model.new_01_var()
    y = model.new_01_var()
    post_bool_and(model, z, x, y)
    model.store.narrow(z, Op.ASSIGN, 0)
    model.store.narrow(x, Op.ASSIGN, 1)
    eng = _fix(model)
    assert eng
    assert eng.value(y) == 0


def test_bool_and_contradiction():
    model = Model()
    z = model.new_01_var()
    x = model.new_01_var()
    y = model.new_01_var()
    post_bool_and(model, z, x, y)
    model.store.narrow(z, Op.ASSIGN, 0)
    model.store.narrow(x, Op.ASSIGN, 1)
    model.store.narrow(y, Op.ASSIGN, 1)
    assert not _fix(model)


def test_bool_and_rejects_mixed_kinds_and_wide_integers():
    model = Model()
    b = model.new_bool_var()
    i = model.new_int_var(0, 1)
    with pytest.raises(PostError):
        post_bool_and(model, b, i, model.new_bool_var())
    with pytest.raises(PostError):
        post_bool_and(model, i, b, b)
    with pytest.raises(PostError):
        post_bool_and(model, i, i, model.new_int_var(0, 2))
    with pytest.raises(PostError):
        post_bool_and(model, model.new_int_var(-1, 0), i, i)
    assert model.unaries == 0 and not model.props
    post_bool_and(model, i, model.new_int_var(1, 1), model.new_int_var(0, 0))
    eng = _fix(model)
    assert eng and eng.value(i) == 0


def test_bool_sum_rejects_mixed_kinds():
    model = Model()
    x = model.new_bool_var()
    y = model.new_int_var(0, 1)
    model.new_int_var(5, 9)
    with pytest.raises(PostError):
        post_bool_sum(model, [x, y], EQ, 1)
    with pytest.raises(PostError):
        post_bool_sum(model, [y, x], LEQ, 1)
    assert model.unaries == 0 and not model.props


@pytest.mark.parametrize("bool_mode", [BOOL_NATIVE, BOOL_INT])
@pytest.mark.parametrize("rel", [LEQ, GEQ, EQ])
def test_bool_sum_rejects_a_repeated_variable(bool_mode, rel):
    """Both routes would count x twice in [x, x] and miss the closure
    (x <= 1 leaves x in {0, 1} although only x = 0 holds), so the sum is
    refused at posting in both Boolean modes."""
    model = Model(bool_mode=bool_mode)
    x = model.new_01_var()
    y = model.new_01_var()
    with pytest.raises(PostError, match="repeated"):
        post_bool_sum(model, [x, y, x], rel, 1)
    assert model.unaries == 0 and not model.props
    assert model.store.domain_values(x) == [0, 1]


def test_bool_sum_routes_by_variable_kind_not_model_mode():
    """Native Booleans in an integer-mode model still get the counter
    propagator, never a linear one reading integer arrays."""
    model = Model(bool_mode=BOOL_INT)
    model.new_int_var(5, 9)
    xs = [model.new_bool_var() for _ in range(3)]
    post_bool_sum(model, xs, EQ, 1)
    model.store.narrow(xs[1], Op.ASSIGN, 1)
    eng = _fix(model)
    assert eng
    assert [eng.value(v) for v in xs] == [0, 1, 0]


@pytest.mark.parametrize("bool_mode", [BOOL_NATIVE, BOOL_INT])
def test_bool_sum_forcing(bool_mode):
    model = Model(bool_mode=bool_mode)
    vs = [model.new_01_var() for _ in range(4)]
    post_bool_sum(model, vs, EQ, 1)
    model.store.narrow(vs[0], Op.ASSIGN, 1)
    eng = _fix(model)
    assert eng
    assert [eng.value(v) for v in vs[1:]] == [0, 0, 0]

    model = Model(bool_mode=bool_mode)
    vs = [model.new_01_var() for _ in range(3)]
    post_bool_sum(model, vs, GEQ, 3)
    eng = _fix(model)
    assert eng
    assert all(eng.value(v) == 1 for v in vs)


def test_bool_sum_failure():
    model = Model()
    vs = [model.new_01_var() for _ in range(2)]
    post_bool_sum(model, vs, LEQ, 1)
    model.store.narrow(vs[0], Op.ASSIGN, 1)
    model.store.narrow(vs[1], Op.ASSIGN, 1)
    assert not _fix(model)


_POOL = 9


@st.composite
def _sum_positions(draw):
    """Positions in a pool of ``_POOL`` variables for one sum, from one to
    six of them: strided (an increasing arithmetic progression) or in
    shuffled order.  Returns the positions and whether they were strided."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        step = draw(st.integers(1, max(1, (_POOL - 1) // max(1, n - 1))))
        first = draw(st.integers(0, _POOL - 1 - step * (n - 1)))
        return list(range(first, first + step * n, step)), True
    positions = draw(st.lists(st.integers(0, _POOL - 1), min_size=n, max_size=n, unique=True))
    return draw(st.permutations(positions)), False


def _read_form(prop):
    """The slice a Boolean sum reads its cells with, or None for a read
    one index at a time."""
    args = prop._read_cells.__reduce__()[1]
    return args[0] if len(args) == 1 and isinstance(args[0], slice) else None


@given(
    _sum_positions(),
    st.lists(st.sampled_from([0, 1, None]), min_size=_POOL, max_size=_POOL),
    st.sampled_from([EQ, LEQ, GEQ]),
    st.integers(0, 6),
)
@example(([4], True), [None] * _POOL, EQ, 1)
@example(([0, 8], True), [None, 0, 1, 0, 1, 0, 1, 0, None], GEQ, 2)
@example(([8, 0], False), [None, 1, 1, 1, 1, 1, 1, 1, None], LEQ, 1)
@example(([1, 4, 7], True), [1, 0, 1, 0, None, 0, 1, None, 1], EQ, 2)
@example(([2, 0, 5], False), [None, 1, None, 0, 1, 0, 1, 0, 1], GEQ, 3)
def test_bool_sum_native_matches_int_model(positions, states, rel, c):
    """The counter propagator and the linear remodelling must prune alike,
    on sums over any part of a pool whose other variables are fixed too.
    A sum over increasing, evenly spaced cells, one cell included, reads
    them with one slice, and any other sum one index at a time."""
    positions, strided = positions

    def run(bool_mode):
        model = Model(bool_mode=bool_mode)
        pool = [model.new_01_var() for _ in range(_POOL)]
        post_bool_sum(model, [pool[i] for i in positions], rel, c)
        for v, state in zip(pool, states):
            if state is not None:
                model.store.narrow(v, Op.ASSIGN, state)
        eng = _fix(model)
        return model, (eng is not None, [eng.domain_values(v) for v in pool] if eng else None)

    model, native = run(BOOL_NATIVE)
    (prop,) = model.props
    steps = {b - a for a, b in zip(positions, positions[1:])}
    if strided or (len(steps) <= 1 and min(steps, default=1) > 0):
        step = min(steps, default=1)
        assert _read_form(prop) == slice(positions[0], positions[-1] + 1, step)
    else:
        assert _read_form(prop) is None
    assert native == run(BOOL_INT)[1]


def _fix_one(eng):
    """Run the engine's one propagator to its fixpoint; returns whether it
    was reached and whether the propagator ended subsumed."""
    eng.schedule_all()
    return eng.fixpoint(), 0 in eng.subsumed


@pytest.mark.parametrize("bool_mode", [BOOL_NATIVE, BOOL_INT])
@pytest.mark.parametrize(
    "rel, c, value", [(EQ, 1, 1), (EQ, 0, 0), (GEQ, 1, 1), (LEQ, 0, 0)]
)
def test_bool_sum_of_one_variable(bool_mode, rel, c, value):
    """A one-variable sum fixes its variable and is entailed."""
    model = Model(bool_mode=bool_mode)
    b = model.new_01_var()
    post_bool_sum(model, [b], rel, c)
    eng = Engine(model.store, model.props)
    assert _fix_one(eng) == (True, True)
    assert eng.value(b) == value


def test_bool_sum_of_one_variable_fails_and_holds():
    model = Model()
    b = model.new_bool_var()
    post_bool_sum(model, [b], EQ, 1)
    model.store.narrow(b, Op.ASSIGN, 0)
    assert not _fix_one(Engine(model.store, model.props))[0]
    model = Model()
    b = model.new_bool_var()
    post_bool_sum(model, [b], LEQ, 1)
    eng = Engine(model.store, model.props)
    assert _fix_one(eng) == (True, True)
    assert eng.domain_values(b) == [0, 1]


@pytest.mark.parametrize(
    "values, rel, c, ok",
    [
        ([1, 0, 1], EQ, 2, True),
        ([1, 0, 1], EQ, 1, False),
        ([1, 0, 1], LEQ, 2, True),
        ([1, 1, 1], LEQ, 2, False),
        ([0, 0, 1], GEQ, 1, True),
        ([0, 0, 0], GEQ, 1, False),
    ],
)
def test_bool_sum_already_fixed(values, rel, c, ok):
    """A sum over fixed cells is entailed when it holds and fails when not."""
    model = Model()
    vs = [model.new_bool_var() for _ in values]
    post_bool_sum(model, vs, rel, c)
    for v, value in zip(vs, values):
        model.store.narrow(v, Op.ASSIGN, value)
    reached, entailed = _fix_one(Engine(model.store, model.props))
    assert reached == ok
    if ok:
        assert entailed


@pytest.mark.parametrize(
    "fixed, rel, c, entailed",
    [
        ({0: 0}, LEQ, 2, False),  # entailed by a false cell: idle
        ({}, LEQ, 2, False),
        ({0: 1}, LEQ, 3, True),  # every assignment satisfies it
        ({0: 1}, GEQ, 1, False),  # entailed by a true cell: idle
        ({0: 0}, GEQ, 1, False),
        ({}, GEQ, 0, True),  # every assignment satisfies it
    ],
)
def test_bool_sum_leq_geq_entailment(fixed, rel, c, entailed):
    """A LEQ or GEQ sum that every completion satisfies prunes nothing and
    leaves the remaining cells open.  It is subsumed only when its own
    events could have led there, or when every assignment satisfies it:
    a LEQ sum entailed by a false cell, or a GEQ sum entailed by a true
    one, stays idle, because neither cell wakes it."""
    model = Model()
    vs = [model.new_bool_var() for _ in range(3)]
    post_bool_sum(model, vs, rel, c)
    for i, value in fixed.items():
        model.store.narrow(vs[i], Op.ASSIGN, value)
    eng = Engine(model.store, model.props)
    assert _fix_one(eng) == (True, entailed)
    open_cells = [v for i, v in enumerate(vs) if i not in fixed]
    assert all(eng.domain_values(v) == [0, 1] for v in open_cells)


def test_lex_leq_basic():
    model = Model()
    xs = [model.new_int_var(0, 1) for _ in range(3)]
    ys = [model.new_int_var(0, 1) for _ in range(3)]
    post_lex_leq(model, xs, ys)
    model.store.narrow(xs[0], Op.ASSIGN, 1)
    eng = _fix(model)
    assert eng
    # [1,..] <=lex [y0,..] forces y0 = 1
    assert eng.value(ys[0]) == 1


def test_lex_leq_tail_decides_strictness():
    model = Model()
    xs = [model.new_int_var(0, 1), model.new_int_var(1, 1)]
    ys = [model.new_int_var(0, 1), model.new_int_var(0, 0)]
    post_lex_leq(model, xs, ys)
    eng = _fix(model)
    assert eng
    # the tail forces x < y at position 0: x0=0, y0=1
    assert eng.value(xs[0]) == 0
    assert eng.value(ys[0]) == 1


def test_lex_rejects_mismatched_vectors():
    model = Model()
    x = model.new_int_var(0, 1)
    with pytest.raises(PostError):
        post_lex_leq(model, [x], [])


def test_lex_rejects_mixed_kinds():
    """The propagator reads by a kind fixed at posting, so a Boolean and an
    integer may not share its vectors."""
    model = Model()
    x = model.new_int_var(0, 1)
    y = model.new_int_var(0, 1)
    b = model.new_bool_var()
    with pytest.raises(PostError):
        post_lex_leq(model, [x, b], [y, x])
    with pytest.raises(PostError):
        post_lex_leq(model, [b], [x])
    with pytest.raises(PostError):
        post_lex_leq(model, [x], [b])
    assert model.unaries == 0 and not model.props


def test_sum_mode_posts_decomposed_pair():
    model = Model(sum_mode=SUM_DECOMPOSED)
    x = model.new_int_var(0, 5)
    y = model.new_int_var(0, 5)
    post_linear(model, [(1, x), (1, y)], EQ, 5)
    assert len(model.props) == 2
    eng = _fix(model)
    assert eng
    assert eng.max(x) == 5 and eng.min(x) == 0


def test_decomposed_fixpoint_matches_native():
    def run(sum_mode):
        model = Model(sum_mode=sum_mode)
        x = model.new_int_var(0, 5)
        y = model.new_int_var(3, 5)
        post_linear(model, [(1, x), (1, y)], EQ, 5)
        eng = _fix(model)
        assert eng
        return eng.domain_values(x), eng.domain_values(y)

    assert run("native") == run(SUM_DECOMPOSED)


def test_constraint_counting_conventions():
    """A model's size is what it posted: its propagators plus its unary
    constraints, and each sum mode posts its own convention."""

    def size(sum_mode):
        model = Model(sum_mode=sum_mode)
        x = model.new_int_var(0, 5)
        y = model.new_int_var(0, 5)
        post_linear(model, [(1, x), (1, y)], EQ, 5)  # 1 native / 2 decomposed
        post_linear(model, [(1, x)], LEQ, 4)  # 1 / 1
        post_bool_sum(
            model, [model.new_01_var(), model.new_01_var()], LEQ, 1, pair_counted=True
        )  # 1 / 2
        post_ne_const(model, y, 3)  # 1 / 1
        return len(model.props) + model.unaries

    assert size(SUM_NATIVE) == 4
    assert size(SUM_DECOMPOSED) == 6


@given(
    st.lists(
        st.tuples(
            st.integers(-3, 3).filter(bool),
            st.integers(-3, 6),
            st.integers(0, 6),
            st.none() | st.integers(0, 2),
        ),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from([EQ, LEQ, GEQ]),
    st.integers(-10, 10),
)
@example([(1, 0, 5, None), (1, 0, 0, 0)], LEQ, 3)  # x + x <= 3
@example([(1, 0, 5, None), (-1, 0, 0, 0), (1, 0, 5, None)], EQ, 2)  # x - x + y = 2
@example([(2, 0, 5, None), (-2, 0, 0, 0)], GEQ, 1)  # cancels to 0 >= 1
def test_linear_fixpoint_is_sound_and_contracting(terms_spec, rel, c):
    """Values surviving propagation can still participate in a support, and
    the fixpoint never contains values outside the original domains.  It is
    also exact: it equals a reference that filters each domain, as a Python
    set, by the interval rule (a value stays while the other terms' extreme
    contributions leave room for it) until nothing changes.  A term may
    reuse an earlier term's variable (its own bounds are then ignored), so
    the reference runs over each variable's merged coefficient, and a sum
    whose coefficients all cancel is decided at posting.  The propagator is
    entailed exactly when every point of its final box satisfies the
    relation."""
    import itertools

    model = Model()
    terms = []
    merged = {}  # each variable's coefficient, in order of first use
    domains = []
    for coeff, lo, width, reuse in terms_spec:
        if reuse is not None and reuse < len(terms):
            var = terms[reuse][1]
        else:
            var = model.new_int_var(lo, lo + width)
            domains.append(list(range(lo, lo + width + 1)))
        terms.append((coeff, var))
        merged[var] = merged.get(var, 0) + coeff
    vars = list(merged)
    coeffs = list(merged.values())

    def sat(combo):
        total = sum(a * v for a, v in zip(coeffs, combo))
        if rel == EQ:
            return total == c
        return total <= c if rel == LEQ else total >= c

    if not any(coeffs):
        if sat([0] * len(vars)):
            post_linear(model, terms, rel, c)
            assert not model.props
        else:
            with pytest.raises(PostError):
                post_linear(model, terms, rel, c)
        return
    post_linear(model, terms, rel, c)
    eng = Engine(model.store, model.props)
    eng.schedule_all()
    ok = eng.fixpoint()

    solutions = [combo for combo in itertools.product(*domains) if sat(combo)]
    if not solutions:
        # bounds reasoning may not prove emptiness, but must never invent it
        if ok:
            assert all(eng.size(v) >= 1 for v in vars)
    else:
        assert ok
        for i, var in enumerate(vars):
            left = set(eng.domain_values(var))
            assert left <= set(domains[i])
            # every value used by some solution must survive bounds pruning
            assert {combo[i] for combo in solutions} <= left

    sets = [set(d) for d in domains]
    changed = True
    while changed and all(sets):
        changed = False
        for i, a in enumerate(coeffs):
            others = [
                sorted(coeffs[j] * v for v in sets[j])
                for j in range(len(coeffs))
                if j != i
            ]
            low = sum(o[0] for o in others)
            high = sum(o[-1] for o in others)
            keep = {
                v
                for v in sets[i]
                if (rel == GEQ or a * v + low <= c) and (rel == LEQ or a * v + high >= c)
            }
            if keep != sets[i]:
                sets[i] = keep
                changed = True
                if not keep:
                    break
    assert ok == all(sets)
    if not ok:
        return
    for var, ref in zip(vars, sets):
        assert eng.domain_values(var) == sorted(ref)
    entailed = all(sat(combo) for combo in itertools.product(*map(sorted, sets)))
    assert (0 in eng.subsumed) == entailed


def _props_of(model, cls):
    return [p for p in model.props if isinstance(p, cls)]


@pytest.mark.parametrize(
    "coeffs, c, x_index, k",
    [
        ((1, -1, 1), 0, 1, 0),  # queens: d - q_i + q_j = 0, q_i = d + q_j
        ((1, 1, -1), 0, 2, 0),  # golomb: d + t_i - t_j = 0, t_j = d + t_i
        ((1, 1, -1), 3, 2, -3),  # a + b - n = 3, n = a + b - 3
        ((-1, -1, 1), 3, 2, 3),  # -a - b + p = 3, p = a + b + 3
        ((-1, 1, -1), -2, 1, -2),  # -a + p - b = -2, p = a + b - 2
    ],
)
def test_difference_routes_to_diff_prop(coeffs, c, x_index, k):
    """Three distinct unit terms of mixed sign under EQ get the difference
    kernel, oriented so that the odd-signed variable is x; the fixpoint is
    the one the linear propagator reaches on the same terms."""

    def run(post):
        model = Model()
        vs = [model.new_int_var(-3, 9), model.new_int_var(0, 4), model.new_int_var(2, 7)]
        terms = [(a, v) for a, v in zip(coeffs, vs)]
        post(model, terms)
        model.store.narrow(vs[0], Op.REMOVE, 0)
        eng = _fix(model)
        return vs, model, eng is not None, [eng.domain_values(v) for v in vs] if eng else None

    vs, model, ok, doms = run(lambda m, t: post_linear(m, t, EQ, c))
    (prop,) = model.props
    assert isinstance(prop, DiffProp)
    assert prop.x == vs[x_index] and prop.k == k
    assert {prop.y, prop.z} == set(vs) - {vs[x_index]}
    assert (ok, doms) == run(lambda m, t: m.add(LinearProp(t, EQ, c)))[2:]


@pytest.mark.parametrize(
    "coeffs, rel, sum_mode",
    [
        ((1, -1, 1), LEQ, "native"),  # not EQ
        ((1, -1, 1), GEQ, "native"),
        ((1, -1, 1), EQ, SUM_DECOMPOSED),  # the LEQ/GEQ pair
        ((1, 1, 1), EQ, "native"),  # all positive, like magic:3's rows
        ((-1, -1, -1), EQ, "native"),
        ((2, -1, 1), EQ, "native"),  # non-unit coefficient
        ((1, -1), EQ, "native"),  # two terms
        ((1, -1, 1, 1), EQ, "native"),  # four terms
    ],
)
def test_other_linear_shapes_stay_on_linear_prop(coeffs, rel, sum_mode):
    model = Model(sum_mode=sum_mode)
    vs = [model.new_int_var(0, 5) for _ in coeffs]
    post_linear(model, list(zip(coeffs, vs)), rel, 1)
    assert model.props and all(type(p) is LinearProp for p in model.props)


def test_repeated_variable_stays_on_linear_prop():
    model = Model()
    x = model.new_int_var(0, 5)
    y = model.new_int_var(0, 5)
    post_linear(model, [(1, x), (-1, y), (1, x)], EQ, 2)  # 2x - y = 2
    (prop,) = model.props
    assert type(prop) is LinearProp
    model.store.narrow(x, Op.ASSIGN, 3)
    eng = _fix(model)
    assert eng
    assert eng.value(y) == 4


_domain_with_holes = st.tuples(
    st.integers(-5, 5), st.integers(0, 7), st.lists(st.integers(1, 6), max_size=3)
)


@settings(max_examples=300)
@given(_domain_with_holes, _domain_with_holes, _domain_with_holes, st.integers(-6, 6))
# One example per y/z bound rule whose narrowing lands on a hole, so the
# kernel must run another pass: y's lower bound, y's upper, z's lower, z's
# upper.
@example((4, 3, [4]), (0, 7, [3, 2]), (-1, 1, []), 2)
@example((0, 4, []), (3, 4, [2]), (-3, 0, [5, 6]), 2)
@example((5, 4, [4, 2, 6]), (-3, 0, [4, 5]), (0, 7, [5, 1]), 3)
@example((1, 4, [6, 4]), (3, 0, [1]), (-3, 7, [1, 1, 3]), 4)
def test_diff_prop_matches_linear(xd, yd, zd, k):
    """x = y + z + k: the difference kernel reaches the linear propagator's
    fixpoint (or its failure) on domains with interior holes, in one run,
    and is entailed exactly when all three variables are fixed."""

    def run(make):
        model = Model()
        vs = []
        for lo, width, holes in (xd, yd, zd):
            v = model.new_int_var(lo, lo + width)
            for off in holes:
                if off < width:
                    model.store.narrow(v, Op.REMOVE, lo + off)
            vs.append(v)
        prop = make(*vs)
        model.add(prop)
        eng = Engine(model.store, model.props)
        eng.schedule_all()
        ok = eng.fixpoint()
        if not ok:
            return False, None, None
        doms = [eng.domain_values(v) for v in vs]
        # The engine never re-queues the running propagator, so its one
        # run must have left nothing for a second run to do.
        assert prop.propagate(eng) != PROP_FAILED
        assert [eng.domain_values(v) for v in vs] == doms
        return True, doms, 0 in eng.subsumed

    ok, doms, entailed = run(lambda x, y, z: DiffProp(x, y, z, k))
    expected = run(lambda x, y, z: LinearProp([(1, x), (-1, y), (-1, z)], EQ, k))
    assert (ok, doms) == expected[:2]
    if ok:
        assert entailed == all(len(d) == 1 for d in doms) == expected[2]


class _LexReference:
    """xs <=lex ys as LexLeqProp computed it through the store's
    size/min/max queries, narrowing both sides of the first open position
    on every run: the reference for the array kernel."""

    priority = PRIORITY_GLOBAL

    def __init__(self, xs, ys):
        self.xs = xs
        self.ys = ys

    def subscriptions(self):
        for var in self.xs + self.ys:
            yield var, BOUNDS_CHANGED

    def _tail_satisfiable(self, s, alpha):
        xs, ys = self.xs, self.ys
        for j in range(alpha + 1, len(xs)):
            if s.min(xs[j]) < s.max(ys[j]):
                return True
            if s.min(xs[j]) > s.max(ys[j]) or s.min(ys[j]) > s.max(xs[j]):
                return False
        return True

    def propagate(self, s):
        xs, ys = self.xs, self.ys
        n = len(xs)
        a = 0
        while True:
            while (
                a < n
                and s.size(xs[a]) == 1
                and s.size(ys[a]) == 1
                and s.min(xs[a]) == s.min(ys[a])
            ):
                a += 1
            if a == n:
                return SUBSUMED
            gap = 0 if self._tail_satisfiable(s, a) else 1
            if s.narrow(xs[a], Op.MAX, s.max(ys[a]) - gap) is FAILED:
                return PROP_FAILED
            if s.narrow(ys[a], Op.MIN, s.min(xs[a]) + gap) is FAILED:
                return PROP_FAILED
            if not (
                s.size(xs[a]) == 1
                and s.size(ys[a]) == 1
                and s.min(xs[a]) == s.min(ys[a])
            ):
                break
        if s.max(xs[a]) < s.min(ys[a]):
            return SUBSUMED
        return AT_FIXPOINT


_lex_small_domain = st.tuples(
    st.integers(-1, 2), st.integers(0, 3), st.lists(st.integers(1, 2), max_size=2)
)


@st.composite
def _lex_cases(draw):
    """Vectors over a pool of variables of one kind; a pool smaller than
    the two vectors makes positions share variables."""
    kind = draw(st.sampled_from(["bool", "int01", "int"]))
    n = draw(st.integers(1, 5))
    size = draw(st.integers(1, 2 * n))
    if kind == "int":
        doms = draw(st.lists(_lex_small_domain, min_size=size, max_size=size))
    else:
        cell = st.sampled_from([0, 1, None])
        doms = draw(st.lists(cell, min_size=size, max_size=size))
    positions = st.lists(st.integers(0, size - 1), min_size=n, max_size=n)
    return kind, doms, draw(positions), draw(positions)


@settings(max_examples=300, deadline=None)
@given(_lex_cases())
@example(("int", [(1, 0, []), (0, 2, [1])], [0], [1]))
def test_lex_leq_matches_reference(case):
    """Each lex kernel reaches the query-based reference's domains, or its
    failure, and is subsumed exactly when the reference is: the cell kernel
    on Boolean vectors, the bounds kernel on {0..1}-integer and holed
    integer vectors, with and without shared variables.  In
    the example, y = {0, 2} narrowed to min 1 becomes 2, above x = 1, so
    the lex is entailed only by the bound the narrowing really left."""
    kind, doms, xi, yi = case

    def run(make):
        model = Model()
        pool = []
        for dom in doms:
            if kind == "int":
                lo, width, holes = dom
                v = model.new_int_var(lo, lo + width)
                for off in holes:
                    if off < width:
                        model.store.narrow(v, Op.REMOVE, lo + off)
            else:
                v = model.new_bool_var() if kind == "bool" else model.new_int_var(0, 1)
                if dom is not None:
                    model.store.narrow(v, Op.ASSIGN, dom)
            pool.append(v)
        model.add(make([pool[i] for i in xi], [pool[i] for i in yi]))
        eng = Engine(model.store, model.props)
        ok, entailed = _fix_one(eng)
        doms_after = [eng.domain_values(v) for v in pool] if ok else None
        return ok, doms_after, entailed

    assert run(LexLeqProp if kind == "bool" else IntLexLeqProp) == run(_LexReference)


@st.composite
def _lex_kernel_cases(draw):
    """Two vectors over a pool of 0/1 variables with a random partial
    fixing; a pool smaller than the vectors shares positions within a
    vector and across the two."""
    size = draw(st.integers(1, 6))
    cells = draw(st.lists(st.sampled_from([0, 1, None]), min_size=size, max_size=size))
    n = draw(st.integers(1, 5))
    positions = st.lists(st.integers(0, size - 1), min_size=n, max_size=n)
    return cells, draw(positions), draw(positions)


@settings(max_examples=300, deadline=None)
@given(_lex_kernel_cases())
def test_bool_and_int_lex_kernels_agree(case):
    """``post_lex_leq`` posts the cell kernel over native Booleans and the
    bounds kernel over {0..1} integers, and the two reach the same outcome,
    the same subsumption and the same domains."""
    cells, xi, yi = case

    def run(bool_mode):
        model = Model(bool_mode=bool_mode)
        pool = [model.new_01_var() for _ in cells]
        for v, cell in zip(pool, cells):
            if cell is not None:
                model.store.narrow(v, Op.ASSIGN, cell)
        post_lex_leq(model, [pool[i] for i in xi], [pool[i] for i in yi])
        (prop,) = model.props
        eng = Engine(model.store, model.props)
        ok, entailed = _fix_one(eng)
        return type(prop), (ok, entailed, [eng.domain_values(v) for v in pool])

    native_kernel, native = run(BOOL_NATIVE)
    int_kernel, as_int = run(BOOL_INT)
    assert (native_kernel, int_kernel) == (LexLeqProp, IntLexLeqProp)
    assert native == as_int


@st.composite
def _polarity_cases(draw):
    """A Boolean sum under <= or >=, or a Boolean lex, over
    a pool of cells with a random partial assignment; lex positions may
    share cells, within a vector and across the two.  ``picks`` chooses the
    cells that get a fixing the propagator does not subscribe to."""
    kind = draw(st.sampled_from([LEQ, GEQ, "lex"]))
    size = draw(st.integers(1, 6))
    cells = draw(st.lists(st.sampled_from([0, 1, None]), min_size=size, max_size=size))
    if kind in (LEQ, GEQ):
        members = draw(st.lists(st.integers(0, size - 1), min_size=1, unique=True))
        spec = members, draw(st.integers(0, len(members)))
    else:
        positions = st.lists(st.integers(0, size - 1), min_size=1, max_size=4)
        xi = draw(positions)
        spec = xi, draw(st.lists(st.integers(0, size - 1), min_size=len(xi), max_size=len(xi)))
    picks = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    return kind, cells, spec, picks


@settings(max_examples=400, deadline=None)
@given(_polarity_cases())
@example(("lex", [None] * 3, ([0, 1], [1, 2]), [True] * 3))
@example(("lex", [None, None, 1], ([0, 1], [1, 2]), [True] * 3))
def test_skipped_polarity_fixings_leave_the_fixpoint_alone(case):
    """A <= sum skips cells turning false, a >= sum cells turning true, and
    a Boolean lex x -> 0 and y -> 1 (a cell in both vectors skips
    neither).  From the propagator's own fixpoint, any such fixings must
    leave a re-run nothing to narrow and nothing to fail."""
    kind, cells, spec, picks = case
    model = Model()
    pool = [model.new_bool_var() for _ in cells]
    for v, cell in zip(pool, cells):
        if cell is not None:
            model.store.narrow(v, Op.ASSIGN, cell)
    if kind in (LEQ, GEQ):
        members, c = spec
        prop = BoolSumProp([pool[i] for i in members], kind, c)
    else:
        xi, yi = spec
        prop = LexLeqProp([pool[i] for i in xi], [pool[i] for i in yi])
    pid = model.add(prop)
    store = Engine(model.store, model.props)

    def domains():
        return [store.domain_values(v) for v in pool]

    while True:  # to the propagator's own fixpoint
        before = domains()
        if prop.propagate(store) == PROP_FAILED:
            return
        if domains() == before:
            break
    for v, pick in zip(pool, picks):
        skipped = [
            value
            for value, table in ((0, store._wake_false), (1, store._wake_true))
            if pid not in table.get(v, ())
        ]
        if pick and skipped and store.size(v) == 2:
            store.narrow(v, Op.ASSIGN, skipped[0])
    before = domains()
    assert prop.propagate(store) != PROP_FAILED
    assert domains() == before

"""Random small models across the whole configuration matrix.

Hypothesis draws either a few small integer variables under linear sums
(including the ``d = x - y`` shape that goes to ``DiffProp``), orderings,
alldifferent and unary constraints, or a few 0/1 variables under Boolean
sums, conjunctions and lex orderings.  Each model is solved for all
solutions under every restore backend, queue policy, sum mode and Boolean
mode, with ``shadow.ShadowBackend`` checking every backtrack and the
per-node fixpoint oracle of ``test_oracle`` checking every node.  The
solutions must equal brute-force enumeration, and every configuration
must explore one tree.  Integer models are also minimized on their first
variable.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from fdlab.constraints import (
    EQ,
    GEQ,
    LEQ,
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
from fdlab.model import BOOL_INT, BOOL_NATIVE, SUM_DECOMPOSED, SUM_NATIVE, Model
from fdlab.propagate import Engine
from fdlab.restore import RestoreMode
from fdlab.search import minimize, solve

from shadow import shadow_backends
from test_oracle import _Oracle

#: At distance 2 a replayed segment is one frame; at 8 a segment batches
#: several frames before one fixpoint.
RESTORES = (
    RestoreMode.trail(),
    RestoreMode.copy(),
    RestoreMode.copy_recompute(2),
    RestoreMode.copy_recompute(8),
)
RELS = (EQ, LEQ, GEQ)

_HOLDS = {
    EQ: lambda total, c: total == c,
    LEQ: lambda total, c: total <= c,
    GEQ: lambda total, c: total >= c,
}


def _holds(con, values):
    """Whether the assignment ``values`` (by variable index) satisfies the
    constraint ``con``, read off its definition."""
    kind, *args = con
    if kind == "linear":
        terms, rel, c = args
        return _HOLDS[rel](sum(a * values[i] for a, i in terms), c)
    if kind == "le":
        x, y, strict = args
        return values[x] < values[y] if strict else values[x] <= values[y]
    if kind == "alldiff":
        (vars,) = args
        return len({values[i] for i in vars}) == len(vars)
    if kind == "ne":
        x, c = args
        return values[x] != c
    if kind == "fix":
        x, c = args
        return values[x] == c
    if kind == "bool_sum":
        vars, rel, c, _ = args
        return _HOLDS[rel](sum(values[i] for i in vars), c)
    if kind == "and":
        z, x, y = args
        return values[z] == (values[x] and values[y])
    xs, ys = args  # lex
    return [values[i] for i in xs] <= [values[i] for i in ys]


def _post(model, vars, con):
    kind, *args = con
    if kind == "linear":
        terms, rel, c = args
        post_linear(model, [(a, vars[i]) for a, i in terms], rel, c)
    elif kind == "le":
        x, y, strict = args
        post_le(model, vars[x], vars[y], strict)
    elif kind == "alldiff":
        post_alldifferent(model, [vars[i] for i in args[0]])
    elif kind == "ne":
        post_ne_const(model, vars[args[0]], args[1])
    elif kind == "fix":
        post_fix(model, vars[args[0]], args[1])
    elif kind == "bool_sum":
        idx, rel, c, pair_counted = args
        post_bool_sum(model, [vars[i] for i in idx], rel, c, pair_counted=pair_counted)
    elif kind == "and":
        post_bool_and(model, *(vars[i] for i in args))
    else:
        xs, ys = args
        post_lex_leq(model, [vars[i] for i in xs], [vars[i] for i in ys])


def _subset(draw, n, lo, hi):
    """A list of distinct variable indices, of length lo..hi, in any order."""
    return draw(st.permutations(range(n)))[: draw(st.integers(lo, min(hi, n)))]


@st.composite
def int_models(draw):
    n = draw(st.integers(2, 4))
    domains = []
    for _ in range(n):
        lo = draw(st.integers(-2, 2))
        domains.append((lo, lo + draw(st.integers(0, 3))))
    var = st.integers(0, n - 1)
    cons = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("linear", "diff", "le", "alldiff", "ne", "fix")))
        if kind == "diff" and n >= 3:  # d = x - y and its sign variants
            signs = draw(st.sampled_from(((1, -1, 1), (-1, 1, -1), (1, 1, -1), (-1, -1, 1))))
            idx = _subset(draw, n, 3, 3)
            cons.append(("linear", list(zip(signs, idx)), EQ, draw(st.integers(-2, 2))))
        elif kind in ("linear", "diff"):
            coeffs = st.sampled_from((1, -1, 2, -2))
            terms = [(draw(coeffs), i) for i in _subset(draw, n, 1, 3)]
            cons.append(("linear", terms, draw(st.sampled_from(RELS)), draw(st.integers(-4, 4))))
        elif kind == "le":
            cons.append(("le", draw(var), draw(var), draw(st.booleans())))
        elif kind == "alldiff":
            cons.append(("alldiff", _subset(draw, n, 2, n)))
        else:
            cons.append((kind, draw(var), draw(st.integers(-3, 5))))
    return "int", domains, cons


@st.composite
def bool_models(draw):
    n = draw(st.integers(3, 5))
    var = st.integers(0, n - 1)
    cons = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("bool_sum", "and", "lex")))
        if kind == "bool_sum":
            idx = _subset(draw, n, 1, n)
            rel = draw(st.sampled_from(RELS))
            c = draw(st.integers(0, len(idx)))
            cons.append(("bool_sum", idx, rel, c, draw(st.booleans())))
        elif kind == "and":
            cons.append(("and", draw(var), draw(var), draw(var)))
        else:
            k = draw(st.integers(1, n))
            xs = [draw(var) for _ in range(k)]
            ys = [draw(var) for _ in range(k)]
            cons.append(("lex", xs, ys))
    return "bool", [(0, 1)] * n, cons


def _build(spec, bool_mode, sum_mode):
    """The model of ``spec``, or None when posting refuses a constraint
    that cannot hold (a unary post that empties a domain, or x < x)."""
    kind, domains, cons = spec
    model = Model(bool_mode=bool_mode, sum_mode=sum_mode)
    if kind == "int":
        vars = [model.new_int_var(lo, hi, decision=True) for lo, hi in domains]
    else:
        vars = [model.new_01_var(decision=True) for _ in domains]
    try:
        for con in cons:
            _post(model, vars, con)
    except PostError:
        return None
    return model


def _brute_force(spec):
    _, domains, cons = spec
    space = itertools.product(*(range(lo, hi + 1) for lo, hi in domains))
    return [values for values in space if all(_holds(con, values) for con in cons)]


@settings(max_examples=150, deadline=None)
@given(st.one_of(int_models(), bool_models()))
def test_random_models_across_the_matrix(spec):
    expected = _brute_force(spec)
    with pytest.MonkeyPatch.context() as mp:
        oracle = _Oracle(mp)
        shadows = shadow_backends(mp)
        trees = set()
        for bool_mode, sum_mode in itertools.product(
            (BOOL_NATIVE, BOOL_INT), (SUM_NATIVE, SUM_DECOMPOSED)
        ):
            model = _build(spec, bool_mode, sum_mode)
            if model is None:
                assert expected == []
                return
            for restore, queue in itertools.product(RESTORES, Engine.POLICIES):
                solutions, stats = solve(model, mode="all", restore=restore, queue=queue)
                assert [s.values for s in solutions] == expected
                trees.add((stats.nodes, stats.backtracks, stats.fingerprint))
        if spec[0] == "int":
            model = _build(spec, BOOL_NATIVE, SUM_NATIVE)
            model.objective = model.decision_vars[0]
            best = min((values[0] for values in expected), default=None)
            for bnb, restore in itertools.product(("tighten", "post"), RESTORES):
                found, _ = minimize(model, bnb=bnb, restore=restore)
                assert (found.objective if found else None) == best
    assert len(trees) == 1
    assert [s.mismatches for s in shadows] == [0] * len(shadows)
    assert oracle.mismatches == []
    assert oracle.sleep_mismatches == []

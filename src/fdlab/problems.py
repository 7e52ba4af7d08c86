"""Builders for the five benchmark problem classes, their extended
variants, derived-parameter arithmetic, and independent solution checkers.

Decision variable layout (also the order of `Solution.values`):

* queens n      -- one column position per row, rows top to bottom
* golomb m      -- the m tick positions, in order; objective = last tick
* magic n       -- the n*n cells, row-major
* golfers p,m,n -- membership cells, nested (week, group, player)
* bibd v,k,l    -- incidence cells, nested (object row, block column)

Auxiliary variables (pair differences, pair-meeting products) are never
branched on.  Alldifferent is posted only over two or more variables, so
the degenerate queens:1, golomb:1, golomb:2 and magic:1 build too.  The extended variant pads the store with unconstrained
Boolean variables to grow the restorable region without changing the
search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import index

from .constraints import (
    EQ,
    LEQ,
    post_alldifferent,
    post_bool_and,
    post_bool_sum,
    post_fix,
    post_le,
    post_lex_leq,
    post_linear,
    post_ne_const,
)
from .model import SUM_DECOMPOSED, Model, ModelError

PROBLEMS = ("queens", "golomb", "magic", "golfers", "bibd")

# Padding Booleans per auxiliary variable in the extended models, derived
# from the published extended variable counts (e.g. queens 21: the 2121
# extended variables are the 231 normal ones plus 9 per each of the 210
# pair variables).
PADDING_PER_AUX = 9


@dataclass(frozen=True)
class Instance:
    problem: str
    params: tuple
    extended: bool = False

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ModelError(f"unknown problem class {self.problem!r}")
        want = 3 if self.problem in ("golfers", "bibd") else 1
        try:
            params = tuple(map(index, self.params))
        except TypeError:
            params = ()
        if len(params) != want or any(p <= 0 for p in params):
            raise ModelError(
                f"{self.problem} expects {want} positive integer parameter(s), "
                f"got {self.params!r}"
            )
        object.__setattr__(self, "params", params)
        if self.extended and self.problem not in ("queens", "golfers"):
            raise ModelError(f"no extended variant for {self.problem}")

    def __str__(self):
        text = f"{self.problem}:{','.join(str(p) for p in self.params)}"
        return text + "+ext" if self.extended else text

    @property
    def is_optimization(self):
        return self.problem == "golomb"


def parse_instance(text):
    """Parse the CLI instance syntax, e.g. ``golfers:2,4,4+ext``."""
    spec = text.strip()
    extended = spec.endswith("+ext")
    if extended:
        spec = spec[: -len("+ext")]
    name, _, args = spec.partition(":")
    if not args:
        raise ModelError(f"malformed instance {text!r} (expected name:params)")
    try:
        params = tuple(int(p) for p in args.split(","))
    except ValueError:
        raise ModelError(f"malformed instance parameters in {text!r}") from None
    return Instance(name, params, extended)


@dataclass(frozen=True)
class ModelCounts:
    variables: int
    constraints_native: int
    constraints_decomposed: int


def bibd_params(v, k, lam):
    """Derived block/replication counts: b = l*v*(v-1)/(k*(k-1)) and
    r = l*(v-1)/(k-1); both must divide evenly."""
    if k < 2 or v < 2:
        raise ModelError("bibd needs v >= 2 and k >= 2")
    if (lam * (v - 1)) % (k - 1) != 0 or (lam * v * (v - 1)) % (k * (k - 1)) != 0:
        raise ModelError(
            f"bibd parameters ({v},{k},{lam}) do not divide evenly"
        )
    b = lam * v * (v - 1) // (k * (k - 1))
    r = lam * (v - 1) // (k - 1)
    return b, r


def _build_queens(model, n):
    queens = [model.new_int_var(0, n - 1, decision=True) for _ in range(n)]
    for i, j in combinations(range(n), 2):
        d = model.new_int_var(-(n - 1), n - 1)
        # d = x_i - x_j, and the diagonal exclusions on the difference
        post_linear(model, [(1, d), (-1, queens[i]), (1, queens[j])], EQ, 0)
        post_ne_const(model, d, j - i)
        post_ne_const(model, d, -(j - i))
    if n > 1:
        post_alldifferent(model, queens)


def _build_golomb(model, m):
    top = m * m
    ticks = [model.new_int_var(0, top, decision=True) for _ in range(m)]
    diffs = []
    for i, j in combinations(range(m), 2):
        d = model.new_int_var(0, top)
        post_linear(model, [(1, d), (1, ticks[i]), (-1, ticks[j])], EQ, 0)
        diffs.append(d)
    post_fix(model, ticks[0], 0)
    for i in range(m - 1):
        post_le(model, ticks[i], ticks[i + 1], strict=True)
    if len(diffs) > 1:
        post_alldifferent(model, diffs)
    model.objective = ticks[-1]


def _build_magic(model, n):
    nn = n * n
    magic = n * (nn + 1) // 2
    cells = [[model.new_int_var(1, nn, decision=True) for _ in range(n)] for _ in range(n)]
    if n > 1:
        post_alldifferent(model, [c for row in cells for c in row])
    for i in range(n):
        post_linear(model, [(1, c) for c in cells[i]], EQ, magic)
    for j in range(n):
        post_linear(model, [(1, cells[i][j]) for i in range(n)], EQ, magic)
    post_linear(model, [(1, cells[i][i]) for i in range(n)], EQ, magic)
    post_linear(model, [(1, cells[i][n - 1 - i]) for i in range(n)], EQ, magic)
    # corner symmetry breaking
    post_le(model, cells[0][0], cells[0][n - 1])
    post_le(model, cells[0][0], cells[n - 1][0])
    post_le(model, cells[0][0], cells[n - 1][n - 1])
    post_le(model, cells[0][n - 1], cells[n - 1][0])


def _build_golfers(model, p, m, n):
    players = n * m
    g = [
        [[model.new_01_var(decision=True) for _ in range(players)] for _ in range(m)]
        for _ in range(p)
    ]
    for w in range(p):
        for pl in range(players):
            post_bool_sum(model, [g[w][gr][pl] for gr in range(m)], EQ, 1)
        for gr in range(m):
            post_bool_sum(model, g[w][gr], EQ, n)
    for a, b in combinations(range(players), 2):
        meets = []
        for w in range(p):
            for gr in range(m):
                y = model.new_01_var()
                post_bool_and(model, y, g[w][gr][a], g[w][gr][b])
                meets.append(y)
        post_bool_sum(model, meets, LEQ, 1, pair_counted=True)
    # symmetry: order the weeks and the groups within each week
    flat = [[v for gr in range(m) for v in g[w][gr]] for w in range(p)]
    for w in range(p - 1):
        post_lex_leq(model, flat[w], flat[w + 1])
    for w in range(p):
        for a, b in combinations(range(m), 2):
            post_lex_leq(model, g[w][a], g[w][b])


def _build_bibd(model, v, k, lam):
    b, r = bibd_params(v, k, lam)
    x = [[model.new_01_var(decision=True) for _ in range(b)] for _ in range(v)]
    for i in range(v):
        post_bool_sum(model, x[i], EQ, r)
    for j in range(b):
        post_bool_sum(model, [x[i][j] for i in range(v)], EQ, k)
    for i1, i2 in combinations(range(v), 2):
        prods = []
        for j in range(b):
            z = model.new_01_var()
            post_bool_and(model, z, x[i1][j], x[i2][j])
            prods.append(z)
        post_bool_sum(model, prods, EQ, lam)
    for i in range(v - 1):
        post_lex_leq(model, x[i], x[i + 1])
    for j in range(b - 1):
        post_lex_leq(
            model, [x[i][j] for i in range(v)], [x[i][j + 1] for i in range(v)]
        )


_BUILDERS = {
    "queens": _build_queens,
    "golomb": _build_golomb,
    "magic": _build_magic,
    "golfers": _build_golfers,
    "bibd": _build_bibd,
}


def build(instance, *, bool_mode="native", sum_mode="native"):
    """Build the posted model for an instance.  The Boolean-representation
    mode only matters for the golfers and bibd classes.  An extended model
    gets ``PADDING_PER_AUX`` padding Booleans per auxiliary variable, that
    is per variable that is not a decision variable."""
    model = Model(bool_mode=bool_mode, sum_mode=sum_mode)
    _BUILDERS[instance.problem](model, *instance.params)
    if instance.extended:
        aux = model.store.num_vars - len(model.decision_vars)
        model.new_bool_vars(PADDING_PER_AUX * aux)
    return model


def counts(instance):
    """Variable and constraint counts read off what the model posts: the
    instance is built once per sum mode, and each constraint count is that
    model's propagators plus its unary constraints (not closed-form
    arithmetic)."""
    native = build(instance)
    decomposed = build(instance, sum_mode=SUM_DECOMPOSED)
    return ModelCounts(
        variables=native.store.num_vars,
        constraints_native=len(native.props) + native.unaries,
        constraints_decomposed=len(decomposed.props) + decomposed.unaries,
    )


# -- independent solution checkers -------------------------------------


def check_solution(instance, values):
    """Verify an assignment of the decision variables directly against the
    problem statement (symmetry-breaking constraints are not checked).
    Returns None when valid, else a violation description."""
    checker = _CHECKERS[instance.problem]
    expect = _decision_count(instance)
    if len(values) != expect:
        return f"expected {expect} decision values, got {len(values)}"
    return checker(values, *instance.params)


def _decision_count(instance):
    p = instance.params
    if instance.problem == "queens":
        return p[0]
    if instance.problem == "golomb":
        return p[0]
    if instance.problem == "magic":
        return p[0] * p[0]
    if instance.problem == "golfers":
        weeks, m, n = p
        return weeks * m * (n * m)
    v, k, lam = p
    b, _ = bibd_params(v, k, lam)
    return v * b


def _check_queens(values, n):
    for i, j in combinations(range(n), 2):
        if values[i] == values[j]:
            return f"queens {i} and {j} share column {values[i]}"
        if abs(values[i] - values[j]) == j - i:
            return f"queens {i} and {j} share a diagonal"
    return None


def _check_golomb(values, m):
    if values[0] != 0:
        return f"first tick is {values[0]}, not 0"
    if any(values[i] >= values[i + 1] for i in range(m - 1)):
        return "ticks are not strictly increasing"
    diffs = [values[j] - values[i] for i, j in combinations(range(m), 2)]
    if len(set(diffs)) != len(diffs):
        return "pairwise differences are not distinct"
    return None


def _check_magic(values, n):
    nn = n * n
    magic = n * (nn + 1) // 2
    if sorted(values) != list(range(1, nn + 1)):
        return f"cells are not a permutation of 1..{nn}"
    rows = [values[i * n : (i + 1) * n] for i in range(n)]
    for i, row in enumerate(rows):
        if sum(row) != magic:
            return f"row {i} sums to {sum(row)}, not {magic}"
    for j in range(n):
        col = sum(rows[i][j] for i in range(n))
        if col != magic:
            return f"column {j} sums to {col}, not {magic}"
    if sum(rows[i][i] for i in range(n)) != magic:
        return "main diagonal sum is off"
    if sum(rows[i][n - 1 - i] for i in range(n)) != magic:
        return "anti-diagonal sum is off"
    return None


def _check_golfers(values, p, m, n):
    players = n * m
    idx = 0
    table = []
    for _ in range(p):
        week = []
        for _ in range(m):
            week.append(values[idx : idx + players])
            idx += players
        table.append(week)
    for w in range(p):
        for pl in range(players):
            if sum(table[w][gr][pl] for gr in range(m)) != 1:
                return f"player {pl} does not play exactly once in week {w}"
        for gr in range(m):
            if sum(table[w][gr]) != n:
                return f"group {gr} of week {w} does not have {n} players"
    for a, b in combinations(range(players), 2):
        met = sum(
            table[w][gr][a] and table[w][gr][b]
            for w in range(p)
            for gr in range(m)
        )
        if met > 1:
            return f"players {a} and {b} meet {met} times"
    return None


def _check_bibd(values, v, k, lam):
    b, r = bibd_params(v, k, lam)
    rows = [values[i * b : (i + 1) * b] for i in range(v)]
    for i, row in enumerate(rows):
        if sum(row) != r:
            return f"object {i} occurs in {sum(row)} blocks, not {r}"
    for j in range(b):
        col = sum(rows[i][j] for i in range(v))
        if col != k:
            return f"block {j} has {col} objects, not {k}"
    for i1, i2 in combinations(range(v), 2):
        dot = sum(rows[i1][j] * rows[i2][j] for j in range(b))
        if dot != lam:
            return f"objects {i1} and {i2} co-occur {dot} times, not {lam}"
    return None


_CHECKERS = {
    "queens": _check_queens,
    "golomb": _check_golomb,
    "magic": _check_magic,
    "golfers": _check_golfers,
    "bibd": _check_bibd,
}

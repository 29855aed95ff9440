"""Property-based tests (hypothesis) for the BDD engine.

Strategy: generate random boolean expression trees over a small variable
set, build them both as BDDs and as Python closures, and check agreement
on every assignment.  On top of that, check the algebraic laws the rest
of the system leans on (quantifier semantics, cube covers, reorder
invariance).
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDD, BDDError

NAMES = ["v0", "v1", "v2", "v3", "v4"]


def expressions(depth=4):
    """Strategy producing (builder, evaluator) expression pairs."""
    leaves = st.sampled_from(NAMES).map(
        lambda n: (lambda bdd: bdd.var(n), lambda env, n=n: bool(env[n]))
    )
    constants = st.booleans().map(
        lambda b: (
            (lambda bdd: bdd.true) if b else (lambda bdd: bdd.false),
            lambda env, b=b: b,
        )
    )

    def combine(children):
        return st.one_of(
            st.tuples(st.sampled_from(["and", "or", "xor"]), children,
                      children).map(_binary),
            children.map(_negate),
        )

    return st.recursive(st.one_of(leaves, constants), combine,
                        max_leaves=12)


def _binary(args):
    op, (fa, ea), (fb, eb) = args
    if op == "and":
        return (
            lambda bdd: fa(bdd) & fb(bdd),
            lambda env: ea(env) and eb(env),
        )
    if op == "or":
        return (
            lambda bdd: fa(bdd) | fb(bdd),
            lambda env: ea(env) or eb(env),
        )
    return (
        lambda bdd: fa(bdd) ^ fb(bdd),
        lambda env: ea(env) != eb(env),
    )


def _negate(pair):
    fa, ea = pair
    return (lambda bdd: ~fa(bdd), lambda env: not ea(env))


def all_envs():
    for bits in itertools.product((0, 1), repeat=len(NAMES)):
        yield dict(zip(NAMES, bits))


@settings(max_examples=60, deadline=None)
@given(expressions())
def test_bdd_matches_evaluator(expr):
    build, evaluate = expr
    bdd = BDD(NAMES)
    f = build(bdd)
    for env in all_envs():
        assert f(env) == evaluate(env)


@settings(max_examples=40, deadline=None)
@given(expressions(), st.sampled_from(NAMES))
def test_exists_is_or_of_cofactors(expr, name):
    build, _ = expr
    bdd = BDD(NAMES)
    f = build(bdd)
    quantified = bdd.exists([name], f)
    expected = bdd.restrict(f, {name: 0}) | bdd.restrict(f, {name: 1})
    assert quantified == expected


@settings(max_examples=40, deadline=None)
@given(expressions(), expressions(),
       st.lists(st.sampled_from(NAMES), unique=True))
def test_and_exists_equals_unfused(expr_a, expr_b, qvars):
    bdd = BDD(NAMES)
    f = expr_a[0](bdd)
    g = expr_b[0](bdd)
    assert bdd.and_exists(f, g, qvars) == bdd.exists(qvars, f & g)


@settings(max_examples=40, deadline=None)
@given(expressions())
def test_cubes_partition_function(expr):
    build, _ = expr
    bdd = BDD(NAMES)
    f = build(bdd)
    cover = bdd.false
    seen = []
    for cube in bdd.iter_cubes(f):
        fn = bdd.cube(cube)
        for other in seen:
            assert (fn & other).is_false  # disjoint
        seen.append(fn)
        cover = cover | fn
    assert cover == f


@settings(max_examples=40, deadline=None)
@given(expressions())
def test_shortest_cube_is_satisfying_and_minimal(expr):
    build, _ = expr
    bdd = BDD(NAMES)
    f = build(bdd)
    fattest = bdd.shortest_cube(f)
    if fattest is None:
        assert f.is_false
        return
    env = {n: fattest.get(n, 0) for n in NAMES}
    assert f(env)
    shortest_path = min(len(c) for c in bdd.iter_cubes(f))
    assert len(fattest) == shortest_path


@settings(max_examples=40, deadline=None)
@given(expressions())
def test_sat_count_matches_enumeration(expr):
    build, evaluate = expr
    bdd = BDD(NAMES)
    f = build(bdd)
    explicit = sum(1 for env in all_envs() if evaluate(env))
    assert bdd.sat_count(f) == explicit


@settings(max_examples=25, deadline=None)
@given(expressions(), st.permutations(NAMES))
def test_set_order_preserves_semantics(expr, order):
    build, evaluate = expr
    bdd = BDD(NAMES)
    f = build(bdd)
    bdd.set_order(list(order))
    assert bdd.var_order() == list(order)
    for env in all_envs():
        assert f(env) == evaluate(env)


@settings(max_examples=20, deadline=None)
@given(st.lists(expressions(), min_size=1, max_size=3))
def test_sift_preserves_all_live_functions(exprs):
    bdd = BDD(NAMES)
    functions = [(build(bdd), evaluate) for build, evaluate in exprs]
    bdd.sift()
    for f, evaluate in functions:
        for env in all_envs():
            assert f(env) == evaluate(env)


@settings(max_examples=30, deadline=None)
@given(expressions(), expressions())
def test_canonicity_after_operations(expr_a, expr_b):
    """Semantically equal functions built differently share a node."""
    bdd = BDD(NAMES)
    f = expr_a[0](bdd)
    g = expr_b[0](bdd)
    # De Morgan round trip must be canonical.
    assert ~(f & g) == (~f | ~g)
    assert ~(f | g) == (~f & ~g)
    assert (f ^ g) == (g ^ f)


# ----------------------------------------------------------------------
# Cross-manager transfer
# ----------------------------------------------------------------------

EXTRA = ["x0", "x1", "x2"]


def _enumerated_copy(f, dst):
    """Reference copy: OR of the source's cubes rebuilt in ``dst``."""
    acc = dst.false
    for cube in f.cubes():
        acc = acc | dst.cube(cube)
    return acc


@settings(max_examples=40, deadline=None)
@given(expressions(), st.permutations(NAMES + EXTRA))
def test_transfer_matches_cube_enumeration(expr, order):
    build, evaluate = expr
    src = BDD(NAMES)
    f = build(src)
    dst = BDD(order)  # shuffled order with extra variables interleaved
    copy = dst.transfer(f)
    assert copy.bdd is dst
    assert copy == _enumerated_copy(f, dst)
    for env in all_envs():
        full = dict(env, **{name: 1 for name in EXTRA})
        assert copy(full) == evaluate(env)


@settings(max_examples=20, deadline=None)
@given(st.lists(expressions(), min_size=1, max_size=3),
       st.permutations(NAMES), st.permutations(NAMES))
def test_transfer_after_source_sift(exprs, shuffled, order):
    """Reordering relabels and rebuilds source nodes in place; the copy
    must follow the source's order at the time of the copy."""
    src = BDD(NAMES)
    functions = [(build(src), evaluate) for build, evaluate in exprs]
    src.set_order(list(shuffled))
    src.sift()
    dst = BDD(order)
    for f, evaluate in functions:
        copy = dst.transfer(f)
        assert copy == _enumerated_copy(f, dst)
        for env in all_envs():
            assert copy(env) == evaluate(env)


@settings(max_examples=40, deadline=None)
@given(expressions(), st.permutations(NAMES + EXTRA))
def test_transfer_round_trip_returns_same_node(expr, order):
    src = BDD(NAMES)
    f = expr[0](src)
    dst = BDD(order)
    back = src.transfer(dst.transfer(f))
    assert back.bdd is src
    assert back.node == f.node


@settings(max_examples=40, deadline=None)
@given(expressions())
def test_transfer_of_undeclared_variable_raises(expr):
    src = BDD(NAMES)
    f = expr[0](src)
    support = sorted(f.support())
    if not support:  # constants need no variables at all
        assert BDD().transfer(f).is_true == f.is_true
        return
    missing = support[0]
    dst = BDD([name for name in NAMES if name != missing])
    with pytest.raises(BDDError, match=missing):
        dst.transfer(f)


# ----------------------------------------------------------------------
# Quantification against a truth table, across reordering
# ----------------------------------------------------------------------

UNUSED = "u"  # declared, but no generated expression mentions it
ALL_NAMES = NAMES + [UNUSED]


def quantified_sets():
    """Name lists with repeats, names outside every support and the empty
    list; ``ends`` adds the current top and/or bottom variable."""
    return st.tuples(
        st.lists(st.sampled_from(ALL_NAMES), max_size=8),
        st.sampled_from(["none", "top", "bottom", "both"]),
    )


def _with_ends(bdd, drawn):
    names, ends = drawn
    order = bdd.var_order()
    names = list(names)
    if ends in ("top", "both"):
        names.append(order[0])
    if ends in ("bottom", "both"):
        names.append(order[-1])
    return names


def _table(bdd, evaluate, names, all_of):
    """Truth-table reference of ``exists``/``forall names . evaluate`` as
    a BDD over ``ALL_NAMES``."""
    quantified = sorted(set(names))
    fold = all if all_of else any
    result = bdd.false
    for bits in itertools.product((0, 1), repeat=len(ALL_NAMES)):
        env = dict(zip(ALL_NAMES, bits))
        value = fold(
            evaluate(dict(env, **dict(zip(quantified, qbits))))
            for qbits in itertools.product((0, 1), repeat=len(quantified))
        )
        if value:
            result = result | bdd.cube(env)
    return result


def _reorder(bdd, how, order):
    if how == "sift":
        bdd.sift()
    else:
        bdd.set_order(list(order))


REORDERS = st.tuples(st.sampled_from(["sift", "order"]),
                     st.permutations(ALL_NAMES))


@settings(max_examples=30, deadline=None)
@given(expressions(), quantified_sets(), REORDERS)
def test_exists_and_forall_match_truth_table(expr, drawn, reorder):
    build, evaluate = expr
    bdd = BDD(ALL_NAMES)
    f = build(bdd)
    results = []
    for phase in ("before", "after"):
        if phase == "after":
            _reorder(bdd, *reorder)
        names = _with_ends(bdd, drawn)
        exists = bdd.exists(names, f)
        forall = bdd.forall(names, f)
        assert exists == _table(bdd, evaluate, names, all_of=False)
        assert forall == _table(bdd, evaluate, names, all_of=True)
        results.append((set(names), exists, forall))
    (names_0, exists_0, forall_0), (names_1, exists_1, forall_1) = results
    if names_0 == names_1:
        # Node ids survive reordering: the earlier handles still denote
        # the functions recomputed under the new order.
        assert exists_0 == exists_1
        assert forall_0 == forall_1


@settings(max_examples=30, deadline=None)
@given(expressions(), expressions(), quantified_sets(), REORDERS)
def test_and_exists_matches_truth_table(expr_a, expr_b, drawn, reorder):
    bdd = BDD(ALL_NAMES)
    f, g = expr_a[0](bdd), expr_b[0](bdd)

    def conj(env):
        return expr_a[1](env) and expr_b[1](env)

    for phase in ("before", "after"):
        if phase == "after":
            _reorder(bdd, *reorder)
        names = _with_ends(bdd, drawn)
        product = bdd.and_exists(f, g, names)
        assert product == _table(bdd, conj, names, all_of=False)
        assert product == bdd.and_exists(g, f, names)
        assert product == bdd.exists(names, f & g)


PRIMED = {name: name + "'" for name in NAMES}
INTERLEAVED = [n for name in NAMES for n in (name, PRIMED[name])]


@settings(max_examples=40, deadline=None)
@given(expressions(), st.lists(st.sampled_from(NAMES), unique=True))
def test_monotone_rename_equals_compose(expr, sources):
    """Each primed variable sits right below its source, so the rename
    takes the structural path; composition is the general fallback."""
    build, evaluate = expr
    bdd = BDD(INTERLEAVED)
    f = build(bdd)
    full_map = {name: PRIMED[name] for name in sources}
    half_map = {name: PRIMED[name] for name in sources[::2]}
    # Alternate two maps so a cache entry of one is never served for the
    # other.
    for mapping in (full_map, half_map, full_map, {}):
        renamed = bdd.rename(f, mapping)
        composed = bdd.compose(f, {src: bdd.var(dst)
                                   for src, dst in mapping.items()})
        assert renamed == composed
        for env in all_envs():
            moved = {PRIMED[n]: v for n, v in env.items() if n in mapping}
            kept = {n: 1 - v for n, v in env.items() if n in mapping}
            full = dict(env, **kept, **moved)
            assert renamed(full) == evaluate(env)

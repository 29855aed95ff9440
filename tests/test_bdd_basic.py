"""Tests for BDD construction, boolean algebra and canonicity."""

import itertools

import pytest

from repro.bdd import BDD, BDDError


@pytest.fixture
def bdd():
    return BDD(["a", "b", "c"])


def assignments(names):
    for bits in itertools.product((0, 1), repeat=len(names)):
        yield dict(zip(names, bits))


class TestBasics:
    def test_terminals(self, bdd):
        assert bdd.true.is_true
        assert bdd.false.is_false
        assert (~bdd.true) == bdd.false

    def test_var_literal(self, bdd):
        a = bdd.var("a")
        assert a.var == "a"
        assert a.low == bdd.false
        assert a.high == bdd.true

    def test_declare_idempotent(self, bdd):
        first = bdd.declare("a")
        assert first == bdd.var("a")
        assert bdd.var_count == 3

    def test_undeclared_var_rejected(self, bdd):
        with pytest.raises(BDDError):
            bdd.var("zz")

    def test_truth_value_is_ambiguous(self, bdd):
        with pytest.raises(TypeError):
            bool(bdd.var("a"))

    def test_functions_unhashable(self, bdd):
        with pytest.raises(TypeError):
            hash(bdd.var("a"))

    def test_mixing_managers_rejected(self, bdd):
        other = BDD(["a"])
        with pytest.raises(ValueError):
            bdd.var("a") & other.var("a")


class TestCanonicity:
    def test_equal_functions_equal_nodes(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f = ~(a & b)
        g = ~a | ~b
        assert f == g

    def test_xor_forms(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        assert (a ^ b) == ((a & ~b) | (~a & b))

    def test_complement_cancels(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f = (a | b) & ~(a & b)
        assert ~(~f) == f

    def test_tautology_collapses_to_true(self, bdd):
        a = bdd.var("a")
        assert (a | ~a).is_true
        assert (a & ~a).is_false

    def test_no_redundant_nodes(self, bdd):
        a = bdd.var("a")
        f = bdd.ite(a, bdd.true, bdd.true)
        assert f.is_true


class TestSemantics:
    def test_operators_match_python(self, bdd):
        a, b, c = bdd.var("a"), bdd.var("b"), bdd.var("c")
        cases = [
            (a & b | c, lambda e: (e["a"] and e["b"]) or e["c"]),
            (a ^ b ^ c, lambda e: e["a"] ^ e["b"] ^ e["c"]),
            (a.implies(b & c), lambda e: (not e["a"]) or (e["b"] and e["c"])),
            (a.equiv(b), lambda e: e["a"] == e["b"]),
            (a - b, lambda e: e["a"] and not e["b"]),
        ]
        for f, model in cases:
            for env in assignments(["a", "b", "c"]):
                assert f(env) == bool(model(env)), (f, env)

    def test_ite_semantics(self, bdd):
        a, b, c = bdd.var("a"), bdd.var("b"), bdd.var("c")
        f = bdd.ite(a, b, c)
        for env in assignments(["a", "b", "c"]):
            expected = env["b"] if env["a"] else env["c"]
            assert f(env) == bool(expected)

    def test_apply_named_ops(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        assert bdd.apply("and", a, b) == (a & b)
        assert bdd.apply("or", a, b) == (a | b)
        assert bdd.apply("xor", a, b) == (a ^ b)
        with pytest.raises(BDDError):
            bdd.apply("nand", a, b)

    def test_evaluate_missing_var_raises(self, bdd):
        f = bdd.var("a") & bdd.var("b")
        with pytest.raises(BDDError):
            bdd.evaluate(f, {"a": 1})

    def test_implication_partial_order(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        assert (a & b) <= a
        assert a <= (a | b)
        assert not (a <= b)
        assert (a | b) >= b

    def test_implication_with_constants(self, bdd):
        a = bdd.var("a")
        # Both directions accept the operands the boolean operators do.
        assert a <= True and a <= 1
        assert not (a <= False) and not (a <= 0)
        assert bdd.false <= False
        assert a >= False and a >= 0
        assert not (a >= True) and not (a >= 1)
        assert (a | ~a) >= True
        # Reflected forms reach the same tests.
        assert True >= a and False <= a
        assert not (True <= a)

    @pytest.mark.parametrize("other", [2, -1, "a", None, 0.5, [1]])
    def test_implication_rejects_foreign_operands(self, bdd, other):
        a = bdd.var("a")
        assert a.__le__(other) is NotImplemented
        assert a.__ge__(other) is NotImplemented
        with pytest.raises(TypeError):
            a <= other
        with pytest.raises(TypeError):
            a >= other
        with pytest.raises(TypeError):
            other <= a

    def test_bool_coercion_constants(self, bdd):
        a = bdd.var("a")
        assert (a & True) == a
        assert (a & False) == bdd.false
        assert (a | True) == bdd.true
        assert (a ^ 1) == ~a


class TestStructure:
    def test_support(self, bdd):
        a, b, c = bdd.var("a"), bdd.var("b"), bdd.var("c")
        assert (a & c).support() == {"a", "c"}
        assert bdd.true.support() == set()
        assert ((a & b) | (~b & a)).support() == {"a"}

    def test_size(self, bdd):
        a = bdd.var("a")
        assert bdd.true.size() == 1
        assert a.size() == 3
        assert (a ^ bdd.var("b")).size() == 5

    def test_var_order_follows_declaration(self, bdd):
        assert bdd.var_order() == ["a", "b", "c"]
        assert bdd.level_of("b") == 1

    def test_stats_keys(self, bdd):
        stats = bdd.stats()
        assert stats["vars"] == 3
        assert stats["nodes"] >= 2


class TestRestrictComposeRename:
    def test_restrict(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f = a & b
        assert bdd.restrict(f, {"a": 1}) == b
        assert bdd.restrict(f, {"a": 0}) == bdd.false
        assert bdd.restrict(f, {"a": 1, "b": 1}) == bdd.true

    def test_restrict_irrelevant_var(self, bdd):
        a = bdd.var("a")
        assert bdd.restrict(a, {"c": 0}) == a

    def test_compose(self, bdd):
        a, b, c = bdd.var("a"), bdd.var("b"), bdd.var("c")
        f = a & c
        g = bdd.compose(f, {"a": b | c})
        assert g == ((b | c) & c)

    def test_compose_simultaneous_swap(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f = a & ~b
        swapped = bdd.compose(f, {"a": b, "b": a})
        assert swapped == (b & ~a)

    def test_rename_monotone(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f = a & ~b
        g = bdd.rename(f, {"a": "b", "b": "c"})
        assert g == (bdd.var("b") & ~bdd.var("c"))

    def test_rename_non_monotone_fallback(self, bdd):
        # c -> a maps a lower level to a higher one: not monotone.
        b, c = bdd.var("b"), bdd.var("c")
        f = b & c
        g = bdd.rename(f, {"c": "a"})
        assert g == (bdd.var("a") & b)

    def test_rename_swap_via_fallback(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f = a & ~b
        # A simultaneous swap is never level-monotone.
        g = bdd.rename(f, {"a": "b", "b": "a"})
        assert g == (b & ~a)


class TestGarbage:
    def test_collect_garbage_reclaims(self):
        bdd = BDD([f"v{i}" for i in range(8)])
        f = bdd.true
        for i in range(8):
            f = f & bdd.var(f"v{i}")
        before = bdd.total_nodes()
        del f
        reclaimed = bdd.collect_garbage()
        assert reclaimed > 0
        assert bdd.total_nodes() < before

    def test_live_functions_survive_gc(self):
        bdd = BDD(["x", "y"])
        f = bdd.var("x") ^ bdd.var("y")
        bdd.collect_garbage()
        assert f(dict(x=1, y=0))
        assert f == (bdd.var("x") ^ bdd.var("y"))

"""Tests for DQBF dependency prefixes and QBF blocked prefixes."""

import pytest

from repro.formula.prefix import EXISTS, FORALL, BlockedPrefix, DependencyPrefix


def simple_prefix() -> DependencyPrefix:
    prefix = DependencyPrefix()
    prefix.add_universal(1)
    prefix.add_universal(2)
    prefix.add_existential(3, [1])
    prefix.add_existential(4, [2])
    return prefix


class TestDependencyPrefix:
    def test_declaration_order_preserved(self):
        prefix = simple_prefix()
        assert prefix.universals == [1, 2]
        assert prefix.existentials == [3, 4]

    def test_double_quantification_rejected(self):
        prefix = simple_prefix()
        with pytest.raises(ValueError):
            prefix.add_universal(3)
        with pytest.raises(ValueError):
            prefix.add_existential(1, [])

    def test_dependency_on_unknown_universal_rejected(self):
        prefix = DependencyPrefix()
        prefix.add_universal(1)
        with pytest.raises(ValueError):
            prefix.add_existential(2, [99])

    def test_dependencies(self):
        prefix = simple_prefix()
        assert prefix.dependencies(3) == frozenset([1])
        assert prefix.dependencies(4) == frozenset([2])

    def test_dependents_of(self):
        prefix = simple_prefix()
        assert prefix.dependents_of(1) == [3]
        assert prefix.dependents_of(2) == [4]

    def test_remove_universal_updates_dependency_sets(self):
        prefix = simple_prefix()
        prefix.remove_universal(1)
        assert prefix.dependencies(3) == frozenset()
        assert 1 not in prefix.universals

    def test_remove_existential(self):
        prefix = simple_prefix()
        prefix.remove_existential(3)
        assert prefix.existentials == [4]
        with pytest.raises(KeyError):
            prefix.dependencies(3)

    def test_remove_variable_dispatches(self):
        prefix = simple_prefix()
        prefix.remove_variable(1)
        prefix.remove_variable(3)
        assert prefix.universals == [2]
        assert prefix.existentials == [4]

    def test_restrict_to_support(self):
        prefix = simple_prefix()
        removed = prefix.restrict_to({1, 3})
        assert set(removed) == {2, 4}
        assert prefix.universals == [1]
        assert prefix.existentials == [3]

    def test_is_qbf_shaped_example1(self):
        """Example 1 of the paper has no equivalent QBF prefix."""
        prefix = simple_prefix()
        assert not prefix.is_qbf_shaped()

    def test_is_qbf_shaped_chain(self):
        prefix = DependencyPrefix()
        prefix.add_universal(1)
        prefix.add_universal(2)
        prefix.add_existential(3, [1])
        prefix.add_existential(4, [1, 2])
        assert prefix.is_qbf_shaped()

    def test_copy_independent(self):
        prefix = simple_prefix()
        clone = prefix.copy()
        clone.remove_universal(1)
        assert 1 in prefix.universals

    def test_set_dependencies(self):
        prefix = simple_prefix()
        prefix.set_dependencies(3, [1, 2])
        assert prefix.dependencies(3) == frozenset([1, 2])
        with pytest.raises(ValueError):
            prefix.set_dependencies(3, [42])

    def test_equality_ignores_order(self):
        a = DependencyPrefix()
        a.add_universal(1)
        a.add_universal(2)
        a.add_existential(3, [1])
        b = DependencyPrefix()
        b.add_universal(2)
        b.add_universal(1)
        b.add_existential(3, [1])
        assert a == b


class TestBlockedPrefix:
    def test_adjacent_blocks_merge(self):
        prefix = BlockedPrefix([(FORALL, [1]), (FORALL, [2]), (EXISTS, [3])])
        assert prefix.blocks == [(FORALL, [1, 2]), (EXISTS, [3])]

    def test_empty_blocks_skipped(self):
        prefix = BlockedPrefix([(FORALL, []), (EXISTS, [3])])
        assert prefix.blocks == [(EXISTS, [3])]

    def test_invalid_quantifier(self):
        with pytest.raises(ValueError):
            BlockedPrefix([("x", [1])])

    def test_quantifier_of(self):
        prefix = BlockedPrefix([(FORALL, [1]), (EXISTS, [2])])
        assert prefix.quantifier_of(1) == FORALL
        assert prefix.quantifier_of(2) == EXISTS
        assert prefix.quantifier_of(9) is None

    def test_remove_variable_merges_neighbours(self):
        prefix = BlockedPrefix([(FORALL, [1]), (EXISTS, [2]), (FORALL, [3])])
        prefix.remove_variable(2)
        assert prefix.blocks == [(FORALL, [1, 3])]

    def test_remove_missing_variable_raises(self):
        prefix = BlockedPrefix([(FORALL, [1])])
        with pytest.raises(KeyError):
            prefix.remove_variable(7)

    def test_to_dependency_prefix(self):
        """The embedding below Definition 3 of the paper."""
        prefix = BlockedPrefix([(FORALL, [1]), (EXISTS, [2]), (FORALL, [3]), (EXISTS, [4])])
        dep = prefix.to_dependency_prefix()
        assert dep.dependencies(2) == frozenset([1])
        assert dep.dependencies(4) == frozenset([1, 3])

    def test_len(self):
        prefix = BlockedPrefix([(FORALL, [1, 2]), (EXISTS, [3])])
        assert len(prefix) == 3

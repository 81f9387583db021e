"""Unit tests for the relational lineage model."""

import numpy as np
import pytest

from repro.core.relation import LineageRelation, default_axis_names


def axis_sum_relation():
    """Lineage of ``B = A.sum(axis=1)`` for a 3x2 array (paper Figure 1)."""
    pairs = []
    for row in range(3):
        for col in range(2):
            pairs.append(((row,), (row, col)))
    return LineageRelation.from_pairs(pairs, out_shape=(3,), in_shape=(3, 2))


class TestConstruction:
    def test_default_axis_names(self):
        assert default_axis_names("b", 2) == ("b1", "b2")

    def test_from_pairs_shapes(self):
        rel = axis_sum_relation()
        assert len(rel) == 6
        assert rel.out_ndim == 1 and rel.in_ndim == 2
        assert rel.attribute_names == ("b1", "a1", "a2")

    def test_from_capture(self):
        rel = LineageRelation.from_capture(
            capture=lambda out_cell: [(out_cell[0], col) for col in range(2)],
            out_shape=(3,),
            in_shape=(3, 2),
        )
        assert rel.as_set() == axis_sum_relation().as_set()

    def test_bad_column_count(self):
        with pytest.raises(ValueError):
            LineageRelation((3,), (3, 2), np.zeros((4, 2), dtype=np.int64))

    def test_empty_relation(self):
        rel = LineageRelation((3,), (3,), np.empty((0, 2)))
        assert len(rel) == 0
        assert rel.as_set() == set()

    def test_validate_bounds(self):
        rel = LineageRelation.from_pairs([((5,), (0, 0))], out_shape=(3,), in_shape=(3, 2))
        with pytest.raises(ValueError):
            rel.validate()

    def test_validate_ok(self):
        axis_sum_relation().validate()


class TestSemantics:
    def test_backward(self):
        rel = axis_sum_relation()
        assert rel.backward([(0,)]) == {(0, 0), (0, 1)}

    def test_forward(self):
        rel = axis_sum_relation()
        assert rel.forward([(2, 1)]) == {(2,)}

    def test_forward_multiple(self):
        rel = axis_sum_relation()
        assert rel.forward([(0, 0), (1, 1)]) == {(0,), (1,)}

    def test_inverted(self):
        rel = axis_sum_relation()
        inv = rel.inverted()
        assert inv.out_shape == rel.in_shape
        assert inv.backward([(0, 1)]) == {(0,)}

    def test_deduplicated(self):
        pairs = [((0,), (0, 0)), ((0,), (0, 0))]
        rel = LineageRelation.from_pairs(pairs, out_shape=(1,), in_shape=(1, 1))
        assert len(rel.deduplicated()) == 1

        # the contract is np.unique(rows, axis=0): values, order and dtype
        rng = np.random.default_rng(7)
        ordered = np.unique(rng.integers(-3, 4, size=(200, 3)), axis=0)
        with_duplicates = np.concatenate([ordered, ordered[::3]])
        adjacent_duplicate = np.insert(ordered, 50, ordered[50], axis=0)
        inputs = {
            "shuffled with duplicates": rng.permutation(with_duplicates),
            "already sorted": ordered,
            "sorted, one adjacent duplicate": adjacent_duplicate,
            "single row": ordered[:1],
            "empty": np.empty((0, 3), dtype=np.int64),
        }
        for label, rows in inputs.items():
            got = LineageRelation((4,), (4, 4), rows).deduplicated().rows
            want = np.unique(rows, axis=0)
            assert got.dtype == want.dtype, label
            assert got.shape == want.shape, label
            assert np.array_equal(got, want), label

    def test_sorted_is_lexicographic(self):
        rel = LineageRelation.from_pairs(
            [((1,), (1, 0)), ((0,), (0, 1)), ((0,), (0, 0))],
            out_shape=(2,),
            in_shape=(2, 2),
        ).sorted()
        assert [tuple(r) for r in rel.rows] == [(0, 0, 0), (0, 0, 1), (1, 1, 0)]

    def test_equality_is_set_semantics(self):
        a = LineageRelation.from_pairs([((0,), (0,)), ((1,), (1,))], (2,), (2,))
        b = LineageRelation.from_pairs([((1,), (1,)), ((0,), (0,))], (2,), (2,))
        assert a == b

    def test_iteration(self):
        rel = axis_sum_relation()
        pairs = list(rel)
        assert ((0,), (0, 0)) in pairs
        assert len(pairs) == 6


class TestSizeAccounting:
    def test_nbytes_raw(self):
        rel = axis_sum_relation()
        assert rel.nbytes_raw() == 6 * 3 * 8

    def test_csv_bytes_header_and_rows(self):
        data = axis_sum_relation().to_csv_bytes().decode()
        lines = data.strip().split("\n")
        assert lines[0] == "b1,a1,a2"
        assert len(lines) == 7

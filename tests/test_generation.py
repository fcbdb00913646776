"""Small posets up to isomorphism against the pairwise-dedup oracle.

``all_posets(n)`` extends each class with n - 1 elements by one point and
keeps the extensions whose labelling has the least key.  The oracle below
is the generator it replaced: walk every labelled poset in key order and
keep the first of each isomorphism class, found by pairwise ``poset_iso``.
Both must give equal tuples: the same representatives, with the same
element names, in the same order.
"""
import pytest

from liftdom.order import (
    _degrees,
    _down_rows,
    _labeled_rows,
    _rows_to_poset,
    all_posets,
    poset_iso,
    posets_upto,
)

# OEIS A000112 (posets up to isomorphism) and A001035 (labelled posets)
UNLABELLED = [1, 1, 2, 5, 16, 63, 318, 2045]
LABELLED = [1, 1, 3, 19, 219, 4231]


def reference_all_posets(n):
    buckets, out = {}, []
    for rows in _labeled_rows(n):
        P = _rows_to_poset(rows)
        key = tuple(sorted(_degrees(rows, _down_rows(rows))))
        if not any(poset_iso(P, Q) is not None for Q in buckets.get(key, ())):
            buckets.setdefault(key, []).append(P)
            out.append(P)
    return tuple(out)


def key(rows):
    # ((down_k, up_k), ...): the labels j < k below and above label k
    down = _down_rows(rows)
    return tuple((down[k] & (1 << k) - 1, rows[k] & (1 << k) - 1) for k in range(len(rows)))


@pytest.mark.parametrize("n", range(6))
def test_all_posets_matches_pairwise_oracle(n):
    assert all_posets(n) == reference_all_posets(n)


def test_class_counts():
    assert [len(all_posets(n)) for n in range(len(UNLABELLED))] == UNLABELLED


def test_labelled_counts_in_increasing_key_order():
    for n, count in enumerate(LABELLED):
        keys = [key(rows) for rows in _labeled_rows(n)]
        assert len(keys) == count
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_representatives_come_in_key_order_named_x0_on():
    for n in range(7):
        keys = [key(P._rows) for P in all_posets(n)]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert [P.elements for P in all_posets(n)] == [tuple(f"x{i}" for i in range(n))] * len(keys)


def test_pointed_posets_are_posets_with_a_bottom_added():
    # removing the bottom is a bijection from pointed classes with n + 1
    # elements onto the classes with n elements
    for n in range(6):
        pointed = [Q for Q in all_posets(n + 1) if Q.is_pointed()]
        assert len(pointed) == len(all_posets(n))
        hits = []
        for Q in pointed:
            rest = Q.restrict([x for x in Q.elements if x != Q.bottom()])
            hits.append([i for i, P in enumerate(all_posets(n)) if poset_iso(rest, P) is not None])
        assert sorted(hits) == [[i] for i in range(len(all_posets(n)))]


def test_negative_sizes_have_no_posets():
    assert all_posets(-1) == ()
    assert all_posets(-3) == ()
    assert posets_upto(-1) == ()

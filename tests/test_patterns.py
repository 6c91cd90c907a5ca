import pytest

from conftest import perms, set_partitions
from stacksortlab import (
    InvalidPermutationError,
    ParseError,
    PreconditionError,
    avoids_barred_3241,
    barred_occurrence_involving_min,
    bell,
    callan_inverse,
    callan_partition,
    contains_231,
    descent_tops_are_lr_maxima,
    exists_231_with_endpoints,
    find_barred_3241,
    format_partition,
    identity,
    parse_partition,
)


def naive_contains_231(p):
    n = len(p)
    return any(p[k] < p[i] < p[j]
               for i in range(n)
               for j in range(i + 1, n)
               for k in range(j + 1, n))


def test_contains_231_examples():
    assert contains_231((2, 3, 1))
    assert contains_231((4, 1, 6, 2))
    assert not contains_231((1, 2, 3, 4, 5))
    assert not contains_231((2, 1))


def test_contains_231_matches_naive_search():
    for n in range(7):
        for p in perms(n):
            assert contains_231(p) == naive_contains_231(p)


def test_exists_231_with_endpoints_examples():
    assert exists_231_with_endpoints((4, 1, 6, 2), 4, 2) == 6
    assert exists_231_with_endpoints((2, 3, 1), 2, 1) == 3
    assert exists_231_with_endpoints((2, 1, 3), 2, 1) is None


def test_exists_231_picks_rightmost_candidate():
    # both 5 and 4 complete (3, ., 1); 4 sits farther right
    assert exists_231_with_endpoints((3, 5, 4, 1), 3, 1) == 4


def test_exists_231_input_errors():
    with pytest.raises(InvalidPermutationError):
        exists_231_with_endpoints((2, 1, 3), 1, 2)  # a >= b
    with pytest.raises(InvalidPermutationError):
        exists_231_with_endpoints((2, 1, 3), 9, 1)  # not an entry


def test_find_barred_examples():
    occ = find_barred_3241((3, 2, 1))
    assert occ.positions == (1, 2, 3) and occ.values == (3, 2, 1)
    assert find_barred_3241((3, 2, 4, 1)) is None
    occ = find_barred_3241((3, 5, 2, 4, 1))
    assert occ.positions == (2, 3, 5) and occ.values == (5, 2, 1)


def test_avoids_examples():
    assert avoids_barred_3241((5, 2, 7, 1, 4, 8, 3, 6, 9))
    assert not avoids_barred_3241((3, 2, 1))
    assert not avoids_barred_3241((3, 2, 1, 4, 5))


def test_witnesses_satisfy_their_own_invariants():
    for n in range(7):
        for p in perms(n):
            occ = find_barred_3241(p)
            if occ is None:
                continue
            i1, i2, i3 = occ.positions
            assert 1 <= i1 < i2 < i3 <= n
            assert occ.values == (p[i1 - 1], p[i2 - 1], p[i3 - 1])
            assert occ.values[0] > occ.values[1] > occ.values[2]
            assert all(p[j - 1] < occ.values[0] for j in range(i2 + 1, i3))


def test_descent_top_check_examples():
    assert descent_tops_are_lr_maxima((2, 3, 1, 4))
    assert descent_tops_are_lr_maxima((3, 2, 4, 1))
    # 4162 avoids: descent tops {4, 6} are exactly its LR maxima
    assert descent_tops_are_lr_maxima((4, 1, 6, 2))
    assert not descent_tops_are_lr_maxima((3, 5, 2, 4, 1))


def test_descent_top_check_equals_avoidance():
    for n in range(8):
        for p in perms(n):
            assert descent_tops_are_lr_maxima(p) == avoids_barred_3241(p)


def test_avoider_counts_are_bell_numbers():
    for n in range(8):
        count = sum(1 for p in perms(n) if avoids_barred_3241(p))
        assert count == bell(n)


def test_occurrence_involving_min():
    occ = barred_occurrence_involving_min((3, 2, 1, 4, 5))
    assert occ.values == (3, 2, 1)
    assert barred_occurrence_involving_min((1, 2, 3, 4, 5)) is None
    assert barred_occurrence_involving_min((3, 2, 4, 1)) is None
    assert barred_occurrence_involving_min(()) is None
    with pytest.raises(InvalidPermutationError):
        barred_occurrence_involving_min((2, 5, 8, 4))


def test_occurrence_involving_min_agrees_with_search():
    # a witness through the minimum exists iff a decreasing pair before 1
    # sees nothing larger than its first value in between
    for n in range(1, 7):
        for p in perms(n):
            occ = barred_occurrence_involving_min(p)
            i3 = p.index(1)
            direct = any(
                p[i2] < p[i1] and max(p[i2 + 1:i3], default=0) < p[i1]
                for i1 in range(i3)
                for i2 in range(i1 + 1, i3))
            assert (occ is not None) == direct
            if occ is not None:
                assert occ.positions[2] == i3 + 1


def test_callan_partition_examples():
    assert callan_partition((2, 3, 1, 4)) == (
        frozenset({2}), frozenset({1, 3}), frozenset({4}))
    assert callan_partition(identity(5)) == tuple(
        frozenset({k}) for k in range(1, 6))
    assert callan_partition((2, 1)) == (frozenset({1, 2}),)


def test_callan_partition_errors():
    with pytest.raises(PreconditionError):
        callan_partition((3, 2, 1))
    with pytest.raises(InvalidPermutationError):
        callan_partition((2, 5, 8, 4))


def test_callan_inverse_examples():
    assert callan_inverse([{2}, {1, 3}, {4}]) == (2, 3, 1, 4)
    assert callan_inverse([{k} for k in range(1, 6)]) == identity(5)
    assert callan_inverse([{1, 2}]) == (2, 1)


def test_callan_inverse_rejects_bad_partitions():
    with pytest.raises(PreconditionError):
        callan_inverse([{1, 2}, {2, 3}])  # overlap
    with pytest.raises(PreconditionError):
        callan_inverse([{1}, {3}])  # gap in the ground set
    with pytest.raises(PreconditionError):
        callan_inverse([set(), {1}])  # empty block


def test_callan_roundtrip_exhaustive():
    for n in range(7):
        for p in perms(n):
            if not avoids_barred_3241(p):
                continue
            assert callan_inverse(callan_partition(p)) == p
        for blocks in set_partitions(n):
            p = callan_inverse(blocks)
            assert avoids_barred_3241(p)
            assert callan_partition(p) == tuple(
                sorted((frozenset(b) for b in blocks), key=max))


def test_partition_text_roundtrip():
    assert format_partition([{2}, {1, 3}, {4}]) == "{2}{1,3}{4}"
    assert parse_partition("{2}{1,3}{4}") == (
        frozenset({2}), frozenset({1, 3}), frozenset({4}))
    assert parse_partition("") == ()
    for blocks in set_partitions(5):
        assert parse_partition(format_partition(blocks)) == \
            tuple(sorted((frozenset(b) for b in blocks), key=max))


def test_partition_parse_errors():
    with pytest.raises(ParseError):
        parse_partition("2,1,3")
    with pytest.raises(ParseError):
        parse_partition("{2}{1,x}")
    with pytest.raises(ParseError) as exc:
        parse_partition("{1}{2,²}")  # "²".isdigit(), but int("²") fails
    assert exc.value.position == 2
    for text in ("{1}{٢}", "{1}{2,1_0}", "{1}{+2}"):  # ASCII digits only
        with pytest.raises(ParseError) as exc:
            parse_partition(text)
        assert exc.value.position == 2, text
    with pytest.raises(PreconditionError):
        parse_partition("{1}{3}")

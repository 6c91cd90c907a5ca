"""Acceptance suite: every exit criterion, exact, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they pass.  The heavy entries (S_9, S_10 images and scans) keep
the whole module at seconds of wall time.
"""

import time
from contextlib import contextmanager

from conftest import perms, set_partitions
from stacksortlab import (
    avoids_barred_3241,
    barred_occurrence_involving_min,
    bell,
    callan_inverse,
    callan_partition,
    canonical_preimage,
    catalan,
    count_avoiders,
    count_t_stack_sortable,
    del_min,
    descent_tops_are_lr_maxima,
    exists_231_with_endpoints,
    identity,
    image_of_iterate,
    iterated_lift,
    lr_maxima,
    stack_sort,
    stack_sort_iterate,
    standardize,
    tail_length,
    verify_prop2,
    verify_theorem1,
    verify_theorem2,
    west_zeilberger_count,
    xi,
    zeta,
)

THEOREM1_CASES = [
    ((1, 2), 1), ((2, 3), 2), ((3, 4), 5), ((3, 5), 5), ((4, 6), 15),
    ((4, 7), 15), ((5, 8), 52), ((5, 9), 52), ((6, 10), 203),
]
THEOREM2_CASES = [(3, 6), (4, 17), (5, 55), (6, 207)]

# counts observed by criteria 2-3 at one shard, reused by criterion 9
_single_shard_counts: dict = {}


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL {desc}")
        raise
    print(f"ACCEPTANCE {num} PASS {desc}")


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def test_criterion_1_worked_examples():
    with criterion(1, "worked examples, exact, < 1 ms each"):
        cases = [
            (stack_sort, ((4, 1, 6, 2),), (1, 4, 2, 6)),
            (stack_sort, ((5, 2, 7, 3, 6, 1, 4),), (2, 5, 3, 1, 4, 6, 7)),
            (del_min, ((4, 9, 6, 2, 8),), (4, 9, 6, 8)),
            (standardize, ((3, 8, 6, 9),), (1, 3, 2, 4)),
            (tail_length, ((2, 3, 1, 4, 5),), 2),
            (tail_length, ((2, 3, 1, 5, 4),), 0),
            (tail_length, ((1, 2, 3, 4, 5),), 5),
            (zeta, (3, 3), (3, 2, 1)),
            (zeta, (3, 4), (3, 2, 1, 4, 5)),
            (zeta, (4, 4), (4, 2, 1, 3, 5)),
            (zeta, (5, 4), (5, 2, 1, 3, 4)),
        ]
        for fn, args, expected in cases:
            fn(*args)  # warm-up outside the timed call
            result, elapsed = _timed(fn, *args)
            assert result == expected, (fn.__name__, args, result)
            assert elapsed < 1e-3, (fn.__name__, args, elapsed)


def test_criterion_2_theorem1_counts():
    with criterion(2, "image counts are Bell numbers for n >= 2m-2, "
                      "with set equality"):
        for (m, n), expected in THEOREM1_CASES:
            report = verify_theorem1(m, n)
            assert report.passed, (m, n, report)
            assert report.observed == expected, (m, n, report.observed)
            assert report.parameters["set_equal"], (m, n)
            _single_shard_counts[("theorem1", m, n)] = report.observed


def test_criterion_3_theorem2_counts():
    with criterion(3, "boundary image counts are B_m + m - 2 with the "
                      "zeta family exact"):
        for m, expected in THEOREM2_CASES:
            report = verify_theorem2(m)
            assert report.passed, (m, report)
            assert report.observed == expected, (m, report.observed)
            assert report.parameters["set_equal"], m
            assert report.parameters["zeta_exact"], m
            _single_shard_counts[("theorem2", m)] = report.observed


def test_criterion_4_descent_top_characterization_and_bijection():
    with criterion(4, "barred avoidance == descent-top rule (n <= 8), "
                      "Bell counts (n <= 10), bijection roundtrips (n <= 8)"):
        for n in range(9):
            seen_avoiders = 0
            for p in perms(n):
                avoids = avoids_barred_3241(p)
                assert avoids == descent_tops_are_lr_maxima(p), p
                if avoids:
                    seen_avoiders += 1
                    assert callan_inverse(callan_partition(p)) == p, p
            assert seen_avoiders == bell(n), n
            for blocks in set_partitions(n):
                p = callan_inverse(blocks)
                assert descent_tops_are_lr_maxima(p)
                assert callan_partition(p) == tuple(
                    sorted((frozenset(b) for b in blocks), key=max))
        # beyond the exhaustive-equivalence range the fast check carries the
        # count on its own
        assert count_avoiders(9) == bell(9)
        assert count_avoiders(10) == bell(10)


def test_criterion_5_lemma_suite():
    with criterion(5, "pattern-transfer, deletion, trailing-1 and "
                      "tail-growth lemmas, exhaustive n <= 7"):
        for n in range(1, 8):
            ident = identity(n)
            for p in perms(n):
                chain = [p]
                for _ in range(n):
                    chain.append(stack_sort(chain[-1]))
                # 21 pairs of s(p) <-> completable 231 pairs of p
                s1 = chain[1]
                for b in range(2, n + 1):
                    for a in range(1, b):
                        inverted = s1.index(b) < s1.index(a)
                        assert inverted == (
                            exists_231_with_endpoints(p, b, a) is not None)
                if n >= 2:
                    dchain = [del_min(p)]
                    for _ in range(n):
                        dchain.append(stack_sort(dchain[-1]))
                    for t in range(n + 1):
                        # deleting the minimum commutes with every power
                        assert dchain[t] == del_min(chain[t]), (p, t)
                for t in range(n + 1):
                    assert tail_length(chain[t]) >= min(t, n), (p, t)
                if p[-1] == 1:
                    for t in range(n + 1):
                        q = chain[t]
                        right = q[q.index(1) + 1:]
                        assert list(right) == sorted(right), (p, t)
                # occurrence propagation, one sorting step at a time
                if barred_occurrence_involving_min(chain[1]) is not None:
                    assert barred_occurrence_involving_min(p) is not None
                    moved = [v for v in range(3, n + 1)
                             if p.index(v) < p.index(1)
                             and chain[1].index(v) > chain[1].index(1)]
                    assert len(moved) >= 2, p
        for n in range(1, 9):
            report = image_of_iterate(n, n - 1, keep_elements=True)
            assert report.elements == {identity(n)}, n


def test_criterion_6_constructions():
    with criterion(6, "preimage postconditions (n <= 8), lift contract "
                      "(n <= 7), xi sorts to zeta (m <= 10), named witness"):
        for n in range(1, 9):
            for p in perms(n):
                if p[-1] != n or not descent_tops_are_lr_maxima(p):
                    continue
                sigma = canonical_preimage(p)
                assert stack_sort(sigma) == p, p
                assert avoids_barred_3241(sigma), p
                assert lr_maxima(sigma) == lr_maxima(p), p
        for n in range(1, 8):
            for p in perms(n):
                if not descent_tops_are_lr_maxima(p):
                    continue
                sigma = iterated_lift(p)
                assert stack_sort_iterate(sigma, tail_length(p)) == p, p
                assert avoids_barred_3241(sigma), p
        for m in range(3, 11):
            for ell in range(3, m + 1):
                assert stack_sort_iterate(xi(ell, m), m - 3) == zeta(ell, m)
        witness = (5, 7, 2, 8, 1, 4, 9, 3, 6)
        target = (5, 2, 7, 1, 4, 8, 3, 6, 9)
        assert stack_sort(witness) == target
        assert avoids_barred_3241(witness)
        assert lr_maxima(witness) == lr_maxima(target)


def test_criterion_7_monotone_chains():
    with criterion(7, "image sizes nonincreasing in n with pinned "
                      "endpoints, m <= 4 up to n = 8"):
        import math
        for m in range(1, 5):
            report = verify_prop2(m, 8)
            assert report.passed, (m, report)
            counts = report.parameters["counts"]
            assert counts[0] == math.factorial(m), m
            floor = bell(m) + m - 2
            for i, n in enumerate(range(m, 9)):
                if n >= 2 * m - 2:
                    assert counts[i] == bell(m), (m, n)
                if m <= n <= 2 * m - 3:
                    assert counts[i] >= floor, (m, n)


def test_criterion_8_sortable_count_cross_checks():
    with criterion(8, "1-pass counts are Catalan (n <= 9); 2-pass counts "
                      "match the closed formula (n <= 8)"):
        for n in range(1, 10):
            assert count_t_stack_sortable(n, 1) == catalan(n), n
        for n in range(1, 9):
            assert count_t_stack_sortable(n, 2) == west_zeilberger_count(n), n


def test_criterion_9_shard_determinism():
    with criterion(9, "criteria 2-3 counts identical at 1, 4 and 16 shards"):
        for (m, n), expected in THEOREM1_CASES:
            one = _single_shard_counts.get(("theorem1", m, n))
            if one is None:
                one = image_of_iterate(n, n - m).count
            assert one == expected, (m, n)
            for shards in (4, 16):
                assert image_of_iterate(n, n - m, shards=shards).count == one
        for m, expected in THEOREM2_CASES:
            one = _single_shard_counts.get(("theorem2", m))
            if one is None:
                one = image_of_iterate(2 * m - 3, m - 3).count
            assert one == expected, m
            for shards in (4, 16):
                assert image_of_iterate(2 * m - 3, m - 3,
                                        shards=shards).count == one

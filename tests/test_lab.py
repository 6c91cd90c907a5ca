import functools
import itertools
import math
from collections import Counter

import pytest

from conftest import perms
from stacksortlab import (
    InvalidPermutationError,
    PreconditionError,
    ResourceBoundError,
    avoids_barred_3241,
    bell,
    bell_numbers,
    catalan,
    characterize_membership_rule,
    count_avoiders,
    count_t_stack_sortable,
    descent_tops_are_lr_maxima,
    explore_open,
    identity,
    image_of_iterate,
    is_t_stack_sortable,
    load_bell_fixture,
    stack_sort,
    stack_sort_iterate,
    tail_length,
    verify_all,
    verify_catalan,
    verify_prop2,
    verify_theorem1,
    verify_theorem2,
    verify_thm3_count,
    verify_west_zeilberger,
    west_zeilberger_count,
    zeta,
)
from stacksortlab import constructions, lab
from stacksortlab.lab import (_brute_image, _predicted_image,
                              _sharing_levels, _Store)

# ---------------------------------------------------------------------------
# exact sequences


def test_bell_examples():
    assert bell(0) == 1
    assert bell(4) == 15
    assert bell(6) == 203


def test_out_of_range_arguments_are_refused():
    with pytest.raises(ValueError):
        bell_numbers(-1)
    with pytest.raises(ValueError):
        count_t_stack_sortable(4, -1)
    with pytest.raises(PreconditionError):
        explore_open(0)


def test_bell_matches_bundled_fixture():
    fixture = load_bell_fixture()
    assert len(fixture) >= 16
    assert bell_numbers(15) == fixture[:16]
    assert bell_numbers(len(fixture) - 1) == fixture


def test_bell_matches_binomial_recurrence():
    # independent route: B_{n+1} = sum_k C(n, k) B_k
    values = bell_numbers(14)
    for n in range(14):
        assert values[n + 1] == sum(
            math.comb(n, k) * values[k] for k in range(n + 1))


def test_catalan_values():
    assert [catalan(n) for n in range(10)] == [
        1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def test_west_zeilberger_values():
    assert [west_zeilberger_count(n) for n in range(1, 9)] == [
        1, 2, 6, 22, 91, 408, 1938, 9614]


def test_west_zeilberger_needs_positive_n():
    # the closed form reads 2 at n = 0, although |S_0| = 1
    with pytest.raises(ValueError):
        west_zeilberger_count(0)
    with pytest.raises(PreconditionError):
        verify_west_zeilberger(0)
    assert count_t_stack_sortable(0, 2) == 1


# ---------------------------------------------------------------------------
# image enumeration


def test_image_small_cases():
    report = image_of_iterate(3, 1, keep_elements=True)
    assert report.count == 2
    assert report.elements == {(1, 2, 3), (2, 1, 3)}
    assert image_of_iterate(4, 1).count == 5
    assert image_of_iterate(5, 1).count == 17


def test_image_t0_is_everything():
    report = image_of_iterate(5, 0)
    assert report.count == 120 and report.elements is None
    report = image_of_iterate(4, 0, keep_elements=True)
    assert report.elements is not None and len(report.elements) == 24


def test_image_degenerate_sizes():
    assert image_of_iterate(0, 3, keep_elements=True).elements == {()}
    assert image_of_iterate(1, 0).count == 1


def test_image_metadata():
    report = image_of_iterate(4, 2, shards=3, keep_elements=True)
    assert report.n == 4 and report.t == 2
    assert report.wall_time >= 0.0
    assert report.count == len(report.elements)


def test_image_shard_independence():
    expected = image_of_iterate(5, 1, keep_elements=True)
    for shards in (2, 3, 7, 16, 120):
        report = image_of_iterate(5, 1, keep_elements=True, shards=shards)
        assert report.count == 17
        assert report.elements == expected.elements


def test_image_matches_brute_oracle():
    for n in range(9):
        for t in range(n + 1):
            expected = _brute_image(n, t)
            for shards in (1, 3):
                report = image_of_iterate(n, t, keep_elements=True,
                                          shards=shards)
                assert report.elements == expected, (n, t, shards)
                assert report.count == len(expected), (n, t, shards)


def test_verify_all_with_shards_passes():
    reports = verify_all(8, shards=2)
    assert len(reports) == 55 and all(r.passed for r in reports)


def test_shards_below_one_is_refused():
    with pytest.raises(ValueError, match="shards"):
        image_of_iterate(3, 1, shards=0)
    with pytest.raises(ValueError, match="shards"):
        verify_all(3, shards=0)


def test_sorted_image_sizes():
    # |s(S_n)| for n = 0..10
    assert [image_of_iterate(n, 1).count for n in range(11)] == [
        1, 1, 1, 2, 5, 17, 68, 326, 1780, 11033, 76028]


def test_twice_sorted_image_sizes():
    # |s^2(S_n)| for n = 0..10
    assert [image_of_iterate(n, 2).count for n in range(11)] == [
        1, 1, 1, 1, 2, 5, 15, 55, 228, 1081, 5718]


def test_thrice_and_four_times_sorted_image_sizes():
    # |s^3(S_n)| and |s^4(S_n)| for n = 0..11, past the default bound
    assert [len(lab._store().image(n, 3)) for n in range(12)] == [
        1, 1, 1, 1, 1, 2, 5, 15, 52, 207, 912, 4456]
    assert [len(lab._store().image(n, 4)) for n in range(12)] == [
        1, 1, 1, 1, 1, 1, 2, 5, 15, 52, 203, 882]


def _count_calls(monkeypatch, name: str) -> list[tuple]:
    """Replace `lab.<name>` by a wrapper that records each call's
    arguments in the returned list."""
    calls: list[tuple] = []
    original = getattr(lab, name)

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(lab, name, counted)
    return calls


def _count_weighted_builds(monkeypatch) -> list[tuple]:
    """Record (r, p) each time a store grows level p >= 1 of the weighted
    nested insertions into s(S_r)."""
    builds: list[tuple] = []
    original = lab._weigh

    def counted(level):
        # the elements of level p-1 have length r + p - 1
        r = len(level) - 2
        element = next(x for table in level for x in table)
        builds.append((r, len(element) - r + 1))
        return original(level)
    monkeypatch.setattr(lab, "_weigh", counted)
    return builds


def test_verify_all_builds_each_level_once(monkeypatch):
    # the grid's one store starts its row W_1 as a list that logs each
    # entry it grows
    grown = []

    class Row(list):
        def append(self, value):
            grown.append(len(self))
            super().append(value)
    init = _Store.__init__

    def spied(self):
        init(self)
        self.sortable[1] = Row([1])
    monkeypatch.setattr(_Store, "__init__", spied)
    joins = _count_calls(monkeypatch, "_join")
    builds = _count_weighted_builds(monkeypatch)
    set_joins = _count_calls(monkeypatch, "_peel_join")
    splits = _count_calls(monkeypatch, "_split_join")
    pairs = _count_calls(monkeypatch, "_split_pairs")
    sorts = _count_calls(monkeypatch, "_stack_pass")
    insertions = _count_calls(monkeypatch, "_put_below")
    assert all(r.passed for r in verify_all(8))
    # the counts build no weighted level and sort nothing: the two-pass
    # counts read the cut-point rows, so every sort is the image unions'
    # one per `_put_below`
    assert joins == [] and builds == []
    assert len(sorts) == len(insertions)
    # the eight catalan claims read one row W_1 and grow each entry once
    assert grown == list(range(1, 9))
    # the images build each level s^t(S_k) once, up to the largest n
    # asked with that t: s(S_5) for theorem2 at m = 4, each from the
    # split join past the held s(S_0), s(S_1) and s(S_2), with the pairs
    # of s(S_3) alone, the only level above s(S_2) that a join of s(S_5)
    # reads; s^2(S_7) at m = 5, and n = 8 for every t >= 3 (t >= 8 is
    # clamped to 7), each from the peel join, which no image asks at t = 1
    assert sorted(k for _, k in splits) == [3, 4, 5]
    assert [k for _, k in pairs] == [3]
    assert sorted((k, t) for _, k, t in set_joins) == sorted(
        [(k, 2) for k in range(1, 8)]
        + [(k, t) for t in range(3, 8) for k in range(1, 9)])


def test_verify_all_asks_for_the_planned_images(monkeypatch):
    # the grid that perfbench/plans.py pins as VERIFY_PERMS: 53 image
    # calls, and sum n! = 415141 over those that build or keep elements
    calls = []
    original = lab.image_of_iterate

    def counted(n, t, keep_elements=False, **kwargs):
        calls.append((n, t, keep_elements))
        return original(n, t, keep_elements=keep_elements, **kwargs)
    monkeypatch.setattr(lab, "image_of_iterate", counted)
    assert len(verify_all(8)) == 55
    assert len(calls) == 53
    assert sum(math.factorial(n) for n, t, keep in calls
               if t or keep) == 415141


def test_level_store_lives_only_inside_its_call(monkeypatch):
    verify_all(4)
    assert lab._STORE.get() is None
    seen = []

    def failing(n, max_n=None):
        seen.append(lab._STORE.get())
        raise RuntimeError("claim failed")
    monkeypatch.setattr(lab, "verify_thm3_count", failing)
    with pytest.raises(RuntimeError):
        verify_all(4)
    assert isinstance(seen[0], _Store)
    assert lab._STORE.get() is None


def test_image_calls_outside_a_scope_share_nothing(monkeypatch):
    joins = _count_calls(monkeypatch, "_peel_join")
    image_of_iterate(7, 3)
    once = len(joins)
    image_of_iterate(7, 3)
    assert once > 0 and len(joins) == 2 * once


def test_relabel_tables_are_built_once_per_process(monkeypatch):
    # the kept-set, shift, raise and skip tables depend only on sizes: a
    # second call joins its own levels again but builds no table.  Every
    # cached table is cleared, since a warm one skips the calls it makes
    # to the others
    cached = (lab._kept_tables, lab._up, lab._raise, lab._skips,
              lab._split_stats)
    for table in cached:
        table.cache_clear()

    def built():
        image_of_iterate(9, 4)
        image_of_iterate(9, 1)
        count_t_stack_sortable(8, 2)
        return [table.cache_info().misses for table in cached]
    first = built()
    assert all(first)
    assert built() == first
    # one table per subset K of [k-1], whatever t or engine asks for it:
    # one tuple per (k, |K|), each built once
    kept_tables = lab._kept_tables
    kept_tables.cache_clear()
    kept = _count_calls(monkeypatch, "_kept_tables")
    for n in range(10):
        for t in range(1, 9):
            image_of_iterate(n, t)
            count_t_stack_sortable(n, t)
    asked = set(kept)
    assert kept_tables.cache_info().misses == len(asked) > 0
    for k, size in asked:
        assert len(kept_tables(k, size)) == math.comb(k - 1, size)


def test_raise_table_fixes_the_bytes_below_v_and_raises_the_rest():
    # inserting v into an entry over {1..j} leaves each byte below v and
    # adds one to each byte from v on
    for v in range(1, 256):
        table = lab._raise(v)
        assert len(table) == 256
        assert all(table[b] == b for b in range(v)), v
        assert all(table[b] == b + 1 for b in range(v, 255)), v


def test_kept_tables_hold_one_table_per_kept_set_of_a_size():
    # one table per K in [k-1] with |K| = size, ordered by max K: 1..size
    # onto K and size+1..k-1 onto [k-1] - K, each in increasing order,
    # every other byte fixed.  Size 0 is the identity, which the weighted
    # join reads for L empty, and at size 1 the descent join reads the
    # table of {g} at g-1.  The order is what makes the peel join's
    # prefixes the K in [top] and the split join's suffixes the K with
    # max K - size >= f
    for k in range(1, 11):
        for size in range(k):
            tables = lab._kept_tables(k, size)
            kept_sets = [tuple(table[1:size + 1]) for table in tables]
            assert len(set(kept_sets)) == len(tables) == \
                math.comb(k - 1, size), (k, size)
            assert [kept[-1:] for kept in kept_sets] == sorted(
                kept[-1:] for kept in kept_sets), (k, size)
            for kept, table in zip(kept_sets, tables):
                assert list(kept) == sorted(kept), (k, kept)
                assert set(kept) <= set(range(1, k)), (k, kept)
                assert list(table[size + 1:k]) == [
                    v for v in range(1, k) if v not in kept], (k, kept)
                assert table[0] == 0 and \
                    table[k:] == bytes(range(k, 256)), (k, kept)
            for top in range(size, k):
                assert set(kept_sets[:math.comb(top, size)]) == set(
                    itertools.combinations(range(1, top + 1), size)), \
                    (k, size, top)
            for f in range(k + 1 if size else 0):
                assert kept_sets[math.comb(f + size - 1, size):] == [
                    kept for kept in kept_sets if kept[-1] - size >= f], \
                    (k, size, f)
            if size == 1:
                assert kept_sets == [(g,) for g in range(1, k)]


def test_peel_join_skips_the_split_that_repeats_the_last_level():
    # L = [k-1], R empty gives s^t(S_{k-1}) k, which other kept sets form
    # again, so no level reads the r = 0 union that split would need
    with _sharing_levels():
        for t in range(1, 8):
            lab._store().image(8, t)
        assert 0 not in lab._store().unions


def test_shared_store_matches_brute_oracle_out_of_order():
    # descending n, then ascending t: the store is asked for levels below
    # the ones it has already grown
    with _sharing_levels():
        for n in range(8, -1, -1):
            for t in range(1, n + 1):
                assert {tuple(q) for q in lab._store().image(n, t)} == \
                    _brute_image(n, t), (n, t)


def test_set_images_match_weight_keys():
    # each image from a fresh store: s(S_n) against the keys of the
    # weighted s(S_n), whose levels one store shares, and s^t(S_n) as
    # one more pass over s^{t-1}(S_n)
    weights = _Store()
    for n in range(11):
        assert lab._store().image(n, 1) == set(weights.preimages(n)), n
        for t in range(2, n + 2):
            assert lab._store().image(n, t) == {
                bytes(stack_sort(x))
                for x in lab._store().image(n, t - 1)}, (n, t)


def test_middle_windows_within_the_cap():
    # |s^{n-m}(S_n)| for n = m..12; the paper leaves the interior open
    def window(m):
        return [image_of_iterate(n, n - m, max_n=12).count
                for n in range(m, 13)]
    assert window(8) == [40320, 11033, 5718, 4456, 4186]
    assert window(9) == [362880, 76028, 33364, 23772]


def test_images_nest_as_n_grows():
    # one pass puts n+1 last, where every later pass leaves it, so for
    # fixed m = n - t the image at n+1 less n+1 lies inside the image at
    # n (s(sigma) less n+1 need not be s of sigma less it: s(231) = 213)
    with _sharing_levels():
        for m in range(1, 8):
            for n in range(m + 1, 12):
                smaller = lab._store().image(n, n - m)
                top = bytes([n + 1])
                for x in lab._store().image(n + 1, n + 1 - m):
                    assert x.replace(top, b"") in smaller, (m, n, x)


def test_images_starting_with_one_or_two_match_one_size_less():
    # ROADMAP item 3's free cut: for t <= n-2 the elements of s^t(S_n)
    # that start with 1, and those that start with 2, each number
    # |s^t(S_{n-1})|
    with _sharing_levels():
        for n in range(3, 11):
            for t in range(1, n - 1):
                firsts = Counter(x[0] for x in lab._store().image(n, t))
                smaller = len(lab._store().image(n - 1, t))
                assert firsts[1] == firsts[2] == smaller, (n, t)


def test_first_entry_deletions_are_one_size_less_with_initial_segments():
    # ROADMAP item 3, unproved: deleting the first entry g of an element
    # x = g (+) q of s^t(S_n) leaves an element q of s^t(S_{n-1}), and the
    # g that go with each such q are 1..h(q), so |s^t(S_n)| is the sum
    # of h(q) over s^t(S_{n-1})
    with _sharing_levels():
        for n in range(2, 11):
            for t in range(1, n):
                heads = {}
                for x in lab._store().image(n, t):
                    q = bytes(v - (v > x[0]) for v in x[1:])
                    heads.setdefault(q, set()).add(x[0])
                assert heads.keys() == lab._store().image(n - 1, t), (n, t)
                for q, gs in heads.items():
                    assert gs == set(range(1, len(gs) + 1)), (n, t, q)


def test_ascent_starts_are_one_size_less_with_a_smaller_first_entry():
    # the identity `_Store.count` rests on at t >= 2, and which holds at
    # t = 1 as well: for t >= 1 and n >= 3 the
    # elements of s^t(S_n) that start with an ascent are g (+) q for q in
    # s^t(S_{n-1}) and 1 <= g <= q_1: g, then q with its entries >= g
    # raised by one
    def ascents(image):
        return {tuple(x) for x in image if x[0] < x[1]}

    def lifted(smaller):
        return {(g,) + tuple(v + (v >= g) for v in q)
                for q in smaller for g in range(1, q[0] + 1)}
    brute = functools.cache(_brute_image)
    for n in range(3, 11):
        for t in range(1, n - 1):
            assert ascents(_Store().image(n, t)) == \
                lifted(_Store().image(n - 1, t)), (n, t)
            if n <= 8:
                assert ascents(brute(n, t)) == lifted(brute(n - 1, t)), (n, t)
    # the count from fresh stores, and from one store asked in descending
    # n, where every level below the first n is already held
    sizes = {(n, t): len(_Store().image(n, t))
             for n in range(12) for t in range(1, n + 2)}
    for (n, t), size in sizes.items():
        assert _Store().count(n, t) == size, (n, t)
    store = _Store()
    for n in range(11, -1, -1):
        for t in range(1, n + 2):
            assert store.count(n, t) == sizes[n, t], (n, t)
    # and in ascending n, where level n-2 is held but level n-1 is not
    store = _Store()
    for n in range(12):
        for t in range(1, n + 2):
            assert store.count(n, t) == sizes[n, t], (n, t)


def test_descent_joins_form_no_top_products():
    # without the s^t(S_{n-1}) n products the join still forms every
    # element of s^t(S_n) that starts with a descent
    store = _Store()
    for n in range(3, 11):
        for t in range(1, n):
            descents = {x for x in store.image(n, t) if x[0] > x[1]}
            assert lab._peel_join(store, n, t, True) == descents, (n, t)


def test_peel_join_needs_no_level_above_k_minus_two():
    # ROADMAP item 12: the splits with |L| < t and L = [k-1] give
    # s^t(S_{k-1}) k, and for k >= t+2 the kept sets K with |K| >= 1 form
    # each of its elements again.  So the full join over a store that
    # holds no level above k-2 has the size of the count, which comes from
    # the descent join (at t = 1 from the split count); every product is
    # an element of s^t(S_k), so equal sizes mean equal sets
    for t in range(1, 11):
        store = _Store()
        for k in range(t + 2, 11 if t == 1 else 13):
            store.image(k - 2, t)
            assert len(lab._peel_join(store, k, t)) == \
                _Store().count(k, t), (k, t)
    # for k <= t+1 the level is the identity alone, read off no level
    store = _Store()
    for t in range(1, 8):
        for k in range(t + 2):
            assert lab._peel_join(store, k, t) == \
                {bytes(range(1, k + 1))}, (k, t)
            assert lab._peel_join(store, k, t, True) == set(), (k, t)
    assert store.sets.keys() == {1} and store.unions == {}


def _kept_table(k, kept):
    """The table sending 1..|kept| onto `kept`, a subset of [k-1], and
    |kept|+1..k-1 onto the rest of [k-1], fixing every other byte."""
    return bytes.maketrans(bytes(range(1, k)), bytes(kept) + bytes(
        v for v in range(1, k) if v not in kept))


def _peel_products(store, k, t):
    """Every product of `_peel_join` at (k, t), t >= 2, as (element, |K|,
    q, y): K in [k-1] with 1 <= |K| <= k-1-t, q = max K - |K|, x in
    s^t(S_{|K|+t-1}) less its last t-1 entries, and y of last rank w > q
    in level t-1 of the nested insertions."""
    p = t - 1
    top = bytes([k])
    for size in range(1, k - p - 1):
        lefts = [x[:size] for x in store.image(size + p, t)]
        ranks = store.nested(k - 1 - size - p, p)
        for kept in itertools.combinations(range(1, k), size):
            table = _kept_table(k, kept)
            q = kept[-1] - size
            for w in range(q + 1, len(ranks)):
                for y in ranks[w]:
                    right = y.translate(lab._up(size)) + top
                    for x in lefts:
                        yield (x + right).translate(table), size, q, y


def test_canonical_splits_past_one_pass_are_a_threshold_in_max_kept():
    # ROADMAP items 3 and 12: call a product of the peel join at t >= 2
    # canonical when no larger |K| forms its element.  Canonical-ness
    # depends on (|K|, y, q) alone, not on the left factor, and it is
    # the threshold q >= phi(y), with one phi(y) for every |K|
    for t in (2, 3, 4):
        store = _Store()
        canonical = {}
        for k in range(t + 2, 11):
            products = list(_peel_products(store, k, t))
            largest = {}
            for z, size, _, _ in products:
                largest[z] = max(largest.get(z, 0), size)
            assert largest.keys() == lab._peel_join(store, k, t), (k, t)
            for z, size, q, y in products:
                assert canonical.setdefault((size, y, q), size == largest[z]) \
                    == (size == largest[z]), (k, t, z)
        rows = {}
        for (size, y, q), c in canonical.items():
            rows.setdefault(y, []).append((q, c))
        for y, row in rows.items():
            phi = min((q for q, c in row if c), default=math.inf)
            assert all(c == (q >= phi) for q, c in row), (t, y)


def test_a_count_never_holds_its_top_level(monkeypatch):
    with _sharing_levels():
        store = lab._store()
        assert image_of_iterate(9, 2).count == 1081
        assert len(store.sets[2]) == 8  # s^2(S_0) .. s^2(S_7)
        store.image(9, 2)
        joins = _count_calls(monkeypatch, "_peel_join")
        assert image_of_iterate(9, 2).count == 1081
        assert joins == []
    # at n = 9 every t <= 6 holds s^t(S_0) .. s^t(S_7), at t = 1 only
    # the (phi, sigma) of their elements, and the elements themselves up
    # to s(S_5); every t >= n-2 reads s^6(S_7), the identity, and joins
    # no level of its own
    store = _Store()
    for t in range(1, 7):
        store.count(9, t)
        assert len(store.sets[t]) == (6 if t == 1 else 8), t
    assert len(store.stats) == 8
    assert [store.count(9, t) for t in (7, 8, 20)] == [2, 1, 1]
    assert store.sets.keys() == set(range(1, 7))
    assert all(len(levels) <= 8 for levels in store.sets.values())


SORTED_SIZES = [1, 1, 1, 2, 5, 17, 68, 326, 1780, 11033, 76028, 578290,
                4803696]  # |s(S_n)| for n = 0..12


def _standardized(x: bytes) -> bytes:
    ranks = sorted(x)
    return bytes(ranks.index(v) + 1 for v in x)


def test_split_join_forms_each_sorted_permutation_once():
    # the split join's list holds every product it forms, so a product
    # formed twice would show as a repeat; each level equals the peel
    # join's set over the same lower levels, and that set's size
    store = _Store()
    for r in range(11):
        level = store.sorted_level(r)
        assert len(level) == len(set(level)) == SORTED_SIZES[r], r
        assert len(store.sorted_stats(r)) == len(level), r
        if r:
            assert set(level) == lab._peel_join(store, r, 1), r
    for r in range(9):
        assert {tuple(x) for x in _Store().sorted_level(r)} == \
            _brute_image(r, 1), r


def test_split_statistics_match_their_definitions():
    # ROADMAP items 3 and 12: the (phi, sigma) the join carries for each
    # element z of s(S_r), r >= 1, are sigma: z less its last entry lies
    # in s(S_{r-1}); phi: the largest z_c, c < r, that is a left-to-right
    # maximum with std(z_1..z_{c-1}) in s(S_{c-1}) and std(z_{c+1}..z_r)
    # in s(S_{r-c}), else 0
    store = _Store()
    held = [set(store.sorted_level(r)) for r in range(10)]
    store.sorted_stats(9)
    checked = 0
    for r in range(1, 10):
        for z, (phi, sigma) in zip(store.sets[1][r], store.stats[r]):
            assert sigma == (z[:-1] in held[r - 1]), z
            assert phi == max(
                (z[c] for c in range(r - 1) if z[c] == max(z[:c + 1])
                 and _standardized(z[:c]) in held[c]
                 and _standardized(z[c + 1:]) in held[r - 1 - c]),
                default=0), z
            checked += 1
    assert checked == sum(SORTED_SIZES[1:10])


def test_canonical_splits_are_a_threshold_in_max_kept():
    # ROADMAP item 12: among the products x (y + |K|) k of the peel join
    # at t = 1, K = L in [k-1] and |K| <= k-2, relabelled by K, the one
    # that forms an element with the largest |K| is the one with
    # max K - |K| >= phi(y); no product with K empty is one
    store = _Store()
    for k in range(3, 10):
        store.sorted_level(k - 1)
        store.sorted_stats(k - 1)
        top = bytes([k])
        products = []
        for a in range(k - 1):
            r = k - 1 - a
            for kept in itertools.combinations(range(1, k), a):
                table = _kept_table(k, kept)
                for y, (phi, _) in zip(store.sets[1][r], store.stats[r]):
                    y = y.translate(lab._up(a)) + top
                    for x in store.sets[1][a]:
                        z = (x + y).translate(table)
                        products.append((z, a, kept[-1:], phi))
        largest = {}
        for z, a, _, _ in products:
            largest[z] = max(largest.get(z, 0), a)
        assert largest.keys() == lab._peel_join(store, k, 1), k
        for z, a, kept_max, phi in products:
            if a:
                assert (a == largest[z]) == (kept_max[0] - a >= phi), (k, z)
            else:
                assert largest[z], (k, z)


def test_sorted_counts_read_no_level_above_n_minus_two(monkeypatch):
    # every t = 1 count the cap allows, from fresh stores, from one store
    # asked in ascending n and from one asked in descending n; a count on
    # a fresh store reads the pairs of s(S_r) up to n-2, and forms the
    # elements only up to n-4, which those pairs read.  Past the cap,
    # |s(S_13)| is the value two engines agree on (ROADMAP item 2)
    assert [image_of_iterate(n, 1, max_n=12).count for n in range(13)] == \
        SORTED_SIZES
    assert _Store().count(13, 1) == 43297358
    splits = _count_calls(monkeypatch, "_split_join")
    pairs = _count_calls(monkeypatch, "_split_pairs")
    for n in range(13):
        splits.clear()
        pairs.clear()
        store = _Store()
        assert store.count(n, 1) == SORTED_SIZES[n], n
        assert sorted(k for _, k in splits) == list(range(3, n - 3)), n
        assert sorted(k for _, k in pairs) == list(range(3, n - 1)), n
        assert len(store.sets[1]) == max(n - 3, 3), n
        assert len(store.stats) == max(n - 1, 3), n
    for order in (range(12), range(11, -1, -1)):
        store = _Store()
        for n in order:
            assert store.count(n, 1) == len(store.sorted_level(n)) == \
                SORTED_SIZES[n], n


def test_no_image_or_count_peels_at_t_one(monkeypatch):
    # one engine for t = 1: the images, counts and claims reach s(S_k)
    # through the split join alone, and a kept s(S_10), which the budget
    # lets through uncounted, is built with no descent join
    joins = _count_calls(monkeypatch, "_peel_join")
    report = image_of_iterate(10, 1, keep_elements=True, max_n=10)
    assert report.count == len(report.elements) == 76028
    assert joins == []
    for n in range(10):
        for t in range(1, n + 2):
            image_of_iterate(n, t)
            image_of_iterate(n, t, keep_elements=True)
    assert all(report.passed for report in verify_all(8))
    image = _brute_image(6, 1)
    for p in itertools.islice(perms(6), 0, 720, 7):
        assert characterize_membership_rule(p, 1) == (
            p in image, "oracle-fallback"), p
    assert joins and all(t >= 2 for _, _, t, *_ in joins)


def _nested_insertions(r, p, q):
    """For each v_1 > ... > v_p in q+1..r+p, a Counter of s(v_p ... s(v_1
    s(R))) over the arrangements R of the other values of [r+p]."""
    out = {}
    for vs in itertools.combinations(range(r + p, q, -1), p):
        values = [v for v in range(1, r + p + 1) if v not in vs]
        counts = out[vs] = Counter()
        for arrangement in itertools.permutations(values):
            x = stack_sort(arrangement)
            for v in vs:
                x = stack_sort((v,) + x)
            counts[x] += 1
    return out


def test_unions_match_nested_insertions():
    store = _Store()
    for r in range(7):
        for p in range(7 - r):
            for q in range(r + 1):
                union = list(itertools.chain(*store.nested(r, p)[q + 1:]))
                assert len(union) == len(set(union)), (r, p, q)
                assert {tuple(y) for y in union} == set().union(
                    *_nested_insertions(r, p, q).values()), (r, p, q)


def test_unions_start_from_the_held_image_level():
    # a store holds s(S_r) once: level 0 of the unions holds at rank r+1
    # the list the split join formed, which the images read, whether the
    # unions or the images come first
    counted = _Store()
    counted.count(12, 2)  # grows the unions of r = 1..9 before any image
    assert set(range(1, 10)) <= counted.unions.keys()
    fresh = _Store()
    imaged = _Store()
    imaged.image(9, 1)
    for r in range(10):
        for store in (counted, fresh, imaged):
            held = store.nested(r, 0)[r + 1]
            assert held is store.sorted_level(r) is store.sets[1][r], r
            assert store.image(r, 1) == set(held), r


def test_unions_sort_each_distinct_element_once(monkeypatch):
    # level l+1 of the nested insertions costs one `_put_below` per
    # distinct element of level l, however many tables hold it
    calls = _count_calls(monkeypatch, "_put_below")
    for r in range(8):
        sizes = [len(list(itertools.chain(*_Store().nested(r, p)[1:])))
                 for p in range(7)]
        for p in range(1, 6):
            store = _Store()
            calls.clear()
            store.nested(r, p)
            assert len(calls) == sum(sizes[:p]), (r, p)
            calls.clear()
            store.nested(r, p + 1)
            assert len(calls) == sizes[p], (r, p)


def test_shared_unions_match_fresh_stores_out_of_order():
    # descending p: a shared store reads levels it grew for a larger p
    store = _Store()
    for r in range(8):
        for p in range(6, -1, -1):
            fresh = _Store()
            for q in range(r + 1):
                assert list(itertools.chain(*store.nested(r, p)[q + 1:])) == \
                    list(itertools.chain(*fresh.nested(r, p)[q + 1:])), \
                    (r, p, q)


def test_weighted_tables_match_nested_insertions():
    # at last rank w, each element carries its number of (ranks, R) over
    # the T(r, ranks) whose last rank is w; T(r, ()) has rank r+1
    store = _Store()
    for r in range(8):
        for p in range(8 - r):
            expected = [Counter() for _ in range(r + 2)]
            for ranks, counts in _nested_insertions(r, p, 0).items():
                expected[ranks[-1] if ranks else r + 1].update(counts)
            level = store.weighted(r, p)
            assert [{tuple(y): w for y, w in table.items()}
                    for table in level] == expected, (r, p)


def test_identity_weights_read_one_level_lower():
    # H(p, r, 0) is read off level p-1; the definition it replaced sums
    # the identity's weight over level p.  Each store is asked in its
    # own order: a fresh one per (p, r), and one shared store top down
    oracle = _Store()

    def expected(p, r):
        ident = bytes(range(1, r + p + 1))
        return sum(table.get(ident, 0) for table in oracle.weighted(r, p))
    pairs = [(p, r) for p in range(1, 9) for r in range(9 - p)]
    for p, r in pairs:
        assert _Store().reach(p, r, 0) == expected(p, r), (p, r)
    shared = _Store()
    for p, r in reversed(pairs):
        assert shared.reach(p, r, 0) == expected(p, r), (p, r)
    # the largest p asked for r is 8-r, so levels 0..7-r and no more
    assert shared.weights.keys() == set(range(8))
    assert all(len(levels) == 8 - r for r, levels in shared.weights.items())


def test_unions_from_rank_one_are_image_levels():
    # U(r, p, 0) = s^{p+1}(S_{r+p}) element for element: every right
    # factor of the peel join lies in a level of the same t
    store = _Store()
    pairs = [(size - p, p) for size in range(1, 10) for p in range(size + 1)]
    assert len(pairs) == 54
    for r, p in pairs:
        assert set(itertools.chain(*store.nested(r, p)[1:])) == \
            store.image(r + p, p + 1), (r, p)


def test_union_ranks_are_restricted_images():
    # level p of the unions at r = n - p holds x = s^{p+1}(A (n+1) B) less
    # its last entry, over A B in S_n with |A| = p, each x at the largest
    # min(A) over those preimages; so U(r, p, q) is the (p+1)-fold image of
    # the permutations with their maximum at position p+1 whose first p
    # entries all exceed q
    for n in range(1, 8):
        for p in range(1, n + 1):
            rank: dict = {}
            for ab in perms(n):
                x = stack_sort_iterate(ab[:p] + (n + 1,) + ab[p:], p + 1)
                x = bytes(x[:-1])
                rank[x] = max(rank.get(x, 0), min(ab[:p]))
            nested = _Store().nested(n - p, p)
            held = {x: w for w, xs in enumerate(nested) for x in xs}
            assert sum(map(len, nested)) == len(held), (n, p)
            assert held == rank, (n, p)


def test_weighted_levels_sort_each_entry_once(monkeypatch):
    # level l+1 of the weighted nested insertions costs one `_put_below`
    # per (element, last rank) entry of level l, however many tables of
    # that rank hold it, and a shared store grows each level once
    calls = _count_calls(monkeypatch, "_put_below")
    for r in range(8):
        sizes = [sum(map(len, _Store().weighted(r, p))) for p in range(7)]
        for p in range(1, 6):
            store = _Store()
            calls.clear()
            store.weighted(r, p)
            assert len(calls) == sum(sizes[:p]), (r, p)
            calls.clear()
            store.weighted(r, p + 1)
            assert len(calls) == sizes[p], (r, p)
            store.weighted(r, p + 1)
            assert len(calls) == sizes[p], (r, p)


def test_passes_stop_at_the_identity_for_any_t():
    # every permutation of [5] is sorted after 4 passes; a larger t must
    # neither recurse nor loop once per pass
    assert image_of_iterate(5, 10**4).count == 1
    assert count_t_stack_sortable(5, 10**4) == 120
    with _sharing_levels():
        # images clamp t to n-1 = 4, s^4(S_5), the identity alone
        assert lab._store().image(5, 10**9) == {bytes(range(1, 6))}
        store = lab._STORE.get()
        # a count grows its row W_t only up to n, whatever t is
        assert count_t_stack_sortable(5, 10**4) == 120
        assert store.sortable[10**4] == [1, 1, 2, 6, 24, 120]
        assert max(store.sets) == 4 and \
            lab._store().image(5, 4) is store.sets[4][5]
        # counts ask how many passes an element needs, walking its
        # passes only up to the identity; 2 3 4 5 1 needs all n-1 = 4
        assert count_t_stack_sortable(7, 3) == 3494
        assert store.depth(bytes([2, 3, 4, 5, 1])) == 4
        assert store.depths[bytes([2, 3, 1, 4, 5])] == 2
        for x, d in store.depths.items():
            x = tuple(x)
            assert stack_sort_iterate(x, d) == tuple(sorted(x)), x
            assert d == 0 or stack_sort_iterate(x, d - 1) != tuple(sorted(x))


def test_image_bounds():
    with pytest.raises(ResourceBoundError):
        image_of_iterate(11, 1)
    with pytest.raises(ResourceBoundError):
        image_of_iterate(13, 1, max_n=13)
    # all of S_n is only kept up to the default bound; its count is not
    with pytest.raises(ResourceBoundError):
        image_of_iterate(11, 0, keep_elements=True, max_n=11)
    with pytest.raises(ResourceBoundError):
        image_of_iterate(10, 0, keep_elements=True)
    assert image_of_iterate(10, 0).count == 3628800
    assert image_of_iterate(11, 0, max_n=12).count == 39916800
    # a kept image of any t holds at most 9! elements: s(S_11) has 578290
    with pytest.raises(ResourceBoundError):
        image_of_iterate(11, 1, keep_elements=True, max_n=11)
    assert len(image_of_iterate(10, 1, keep_elements=True).elements) == 76028
    with pytest.raises(ValueError):
        image_of_iterate(4, -1)
    with pytest.raises(ValueError):
        image_of_iterate(-1, 1)


def test_kept_image_within_the_budget_is_not_counted(monkeypatch):
    # every element of s^t(S_n) ends in n-t+1..n, so |s^t(S_n)| <= (n-t)!
    # and a kept image with n - t <= 9 is built without a count
    def refuse(self, n, t):
        raise AssertionError(f"counted ({n}, {t})")
    monkeypatch.setattr(_Store, "count", refuse)
    for n, t, size in [(9, 0, 362880), (10, 1, 76028), (10, 2, 5718),
                       (11, 3, 4456), (12, 4, 4186)]:
        report = image_of_iterate(n, t, keep_elements=True, max_n=12)
        assert report.count == len(report.elements) == size, (n, t)


def test_kept_image_refusals_name_the_count():
    for n, t, count in [(10, 0, 3628800), (11, 1, 578290),
                        (12, 1, 4803696)]:
        with pytest.raises(ResourceBoundError) as refused:
            image_of_iterate(n, t, keep_elements=True, max_n=12)
        assert str(refused.value) == (
            f"keeping the {count} elements of s^{t}(S_{n}) is capped at "
            f"9! = 362880; the count alone is allowed"), (n, t)


def test_image_report_record():
    rec = image_of_iterate(3, 1, keep_elements=True).as_record()
    assert rec["count"] == 2
    assert rec["elements"] == ["1 2 3", "2 1 3"]
    assert set(rec) == {"n", "t", "count", "elements", "wall_time"}


# ---------------------------------------------------------------------------
# membership


def test_characterize_examples():
    assert characterize_membership_rule((3, 2, 1, 4, 5), 1) == (True, "thm2-zeta")
    assert characterize_membership_rule((2, 1, 3, 4, 5), 1) == (
        True, "thm2-characterized")
    assert characterize_membership_rule((2, 3, 1, 5, 4), 2) == (False, "thm1")
    assert characterize_membership_rule((1, 4, 2, 6, 3, 5), 1)[0] in (
        True, False)


def test_characterize_thm1_path():
    # n = 6, t = 2 puts m = 4 with n >= 2m-2
    ok, rule = characterize_membership_rule((2, 1, 3, 4, 5, 6), 2)
    assert (ok, rule) == (True, "thm1")
    ok, rule = characterize_membership_rule((2, 3, 1, 4, 5, 6), 2)
    assert (ok, rule) == (True, "thm1")


def test_characterize_fallback_small():
    # n = 6, t = 1 gives m = 5: outside both characterized regimes
    member, rule = characterize_membership_rule((2, 1, 3, 4, 5, 6), 1)
    assert member and rule == "oracle-fallback"
    member, rule = characterize_membership_rule((1, 2, 3, 4, 6, 5), 1)
    assert not member and rule == "oracle-fallback"


def test_characterize_fallback_shortcuts():
    assert characterize_membership_rule((3, 1, 4, 2), 0) == (
        True, "oracle-fallback")
    assert characterize_membership_rule((1, 2, 3, 4), 5) == (
        True, "oracle-fallback")
    assert characterize_membership_rule((2, 1, 3, 4), 5) == (
        False, "oracle-fallback")


def test_characterize_matches_oracle_exhaustively():
    for n in range(7):
        for t in range(n + 2):
            elements = image_of_iterate(n, t, keep_elements=True).elements
            for p in perms(n):
                member = characterize_membership_rule(p, t)[0]
                assert member == (p in elements), (p, t)


def test_characterize_fallback_keeps_no_elements(monkeypatch):
    original = lab.image_of_iterate
    calls = []

    def no_elements(n, t, keep_elements=False, **kwargs):
        assert not keep_elements, "the fallback copied every element"
        calls.append((n, t))
        return original(n, t, **kwargs)
    monkeypatch.setattr(lab, "image_of_iterate", no_elements)
    image = _brute_image(6, 1)
    for p in perms(6):
        assert characterize_membership_rule(p, 1) == (
            p in image, "oracle-fallback"), p
    assert calls == [(6, 1)] * 720


def test_characterize_no_enumeration_needed_above_bound():
    # the characterized regimes answer without enumerating
    assert characterize_membership_rule(identity(11), 10)[0]
    assert characterize_membership_rule(identity(12), 6)[0]
    # short tail: positions 7 and 8 swapped leaves only a 4-tail
    swapped = identity(12)[:6] + (8, 7) + identity(12)[8:]
    assert not characterize_membership_rule(swapped, 6)[0]


def test_characterize_undecidable_over_bound():
    with pytest.raises(ResourceBoundError):
        characterize_membership_rule(identity(11), 2)


def test_characterize_reads_one_zeta_candidate():
    # zeta(ell, m) starts with ell, so the n = 2m-3 rule compares p with
    # zeta(p[0], m) alone; that must agree with comparing every member
    for m in range(3, 6):
        zetas = [zeta(ell, m) for ell in range(3, m + 1)]
        for p in perms(2 * m - 3):
            assert (3 <= p[0] <= m and p == zeta(p[0], m)) == \
                any(p == z for z in zetas), (m, p)
            rule = characterize_membership_rule(p, m - 3)[1]
            assert (rule == "thm2-zeta") == (p in zetas), (m, p)


def test_characterize_input_errors():
    with pytest.raises(InvalidPermutationError):
        characterize_membership_rule((2, 5, 8, 4), 1)
    with pytest.raises(ValueError):
        characterize_membership_rule((2, 1), -1)


# ---------------------------------------------------------------------------
# verification suites


def test_verify_theorem1_small():
    report = verify_theorem1(3, 4)
    assert (report.expected, report.observed, report.passed) == (5, 5, True)
    report = verify_theorem1(1, 5)
    assert (report.expected, report.observed, report.passed) == (1, 1, True)
    assert report.claim == "theorem1"


def test_verify_theorem1_bad_args():
    with pytest.raises(ValueError):
        verify_theorem1(3, 3)  # n < 2m-2
    with pytest.raises(ValueError):
        verify_theorem1(0, 4)


def test_verify_theorem2_small():
    report = verify_theorem2(3)
    assert (report.expected, report.observed, report.passed) == (6, 6, True)
    report = verify_theorem2(4)
    assert (report.expected, report.observed, report.passed) == (17, 17, True)
    assert report.parameters["zeta_exact"]


def test_verify_prop2_chains():
    report = verify_prop2(3, 7)
    assert report.passed
    assert report.parameters["counts"] == [6, 5, 5, 5, 5]
    report = verify_prop2(1, 6)
    assert report.passed
    assert report.parameters["counts"] == [1, 1, 1, 1, 1, 1]


def test_windows_past_the_bound_build_nothing(monkeypatch):
    joins = _count_calls(monkeypatch, "_peel_join")
    for window in (lambda: verify_prop2(3, 11), lambda: explore_open(7)):
        with pytest.raises(ResourceBoundError):
            window()
    assert joins == []

def test_verify_named_counts():
    assert verify_thm3_count(6).observed == 203
    assert verify_catalan(6).observed == 132
    assert verify_west_zeilberger(5).observed == 91
    assert all(r.passed for r in (verify_thm3_count(6), verify_catalan(6),
                                  verify_west_zeilberger(5)))


def _record(report) -> tuple[dict, list]:
    """The record, and its parameter names in the order the CLI prints."""
    rec = report.as_record()
    return rec, list(rec["parameters"])


def test_claim_records_are_pinned():
    def rec(claim, parameters, expected):
        return ({"claim": claim, "parameters": parameters,
                 "expected": expected, "observed": expected, "pass": True},
                list(parameters))
    assert _record(verify_theorem1(3, 4)) == rec(
        "theorem1", {"m": 3, "n": 4, "set_equal": True}, 5)
    assert _record(verify_theorem2(4)) == rec(
        "theorem2", {"m": 4, "n": 5, "set_equal": True, "zeta_exact": True},
        17)
    assert _record(verify_prop2(3, 6)) == rec(
        "prop2", {"m": 3, "n_max": 6, "counts": [6, 5, 5, 5]}, 4)
    assert _record(verify_thm3_count(4)) == rec("thm3_count", {"n": 4}, 15)
    assert _record(verify_catalan(5)) == rec("catalan", {"n": 5}, 42)
    assert _record(verify_west_zeilberger(4)) == rec(
        "west_zeilberger", {"n": 4}, 22)


def test_image_claims_fail_when_the_predicted_set_misses_an_element(
        monkeypatch):
    original = lab._predicted_image

    def short(n, t):
        return frozenset(sorted(original(n, t))[1:])
    monkeypatch.setattr(lab, "_predicted_image", short)
    for report in (verify_theorem1(3, 4), verify_theorem2(4)):
        assert report.parameters["set_equal"] is False, report.claim
        assert report.expected == report.observed and not report.passed


def test_image_claims_read_the_level_the_engine_holds():
    # a claim that compared its prediction with a copy of itself, or built
    # its level again in a store of its own, would pass on tampered levels
    with _sharing_levels():
        store = lab._store()
        foreign = store.image(6, 3)
        foreign.add(bytes([6, 5, 4, 3, 2, 1]))  # tail length 0
        short = store.image(7, 2)
        short.remove(min(short))
        reports = (verify_theorem1(3, 6), verify_theorem2(5))
    # B_3 and the foreign element; B_5 + 5 - 2 less the dropped one
    for report, size in zip(reports, (bell(3) + 1, bell(5) + 5 - 2 - 1)):
        assert report.parameters["set_equal"] is False, report.claim
        assert report.observed == size and not report.passed, report.claim


def test_theorem2_fails_when_the_pattern_check_finds_no_zeta(monkeypatch):
    monkeypatch.setattr(lab, "descent_tops_are_lr_maxima", lambda p: True)
    report = verify_theorem2(4)
    assert report.parameters["set_equal"] is True
    assert report.parameters["zeta_exact"] is False and not report.passed


def test_claims_past_the_bound_refuse_before_their_expected_values(
        monkeypatch):
    # B_m, the zetas and the closed forms grow with m or n, so a claim past
    # the bound raises before it builds any of them
    def unreachable(*args):
        raise AssertionError("built before the bound was checked")
    for name in ("bell", "catalan", "west_zeilberger_count"):
        monkeypatch.setattr(lab, name, unreachable)
    monkeypatch.setattr(constructions, "zeta", unreachable)
    for claim in (lambda: verify_theorem1(6, 11),
                  lambda: verify_theorem2(7),
                  lambda: verify_thm3_count(11),
                  lambda: verify_catalan(11),
                  lambda: verify_west_zeilberger(11)):
        with pytest.raises(ResourceBoundError):
            claim()

def test_count_t_stack_sortable_examples():
    assert count_t_stack_sortable(4, 1) == 14
    assert count_t_stack_sortable(3, 2) == 6
    # closed form and brute force agree (the why of the 91)
    assert count_t_stack_sortable(5, 2) == west_zeilberger_count(5) == 91


def test_image_weights_match_brute_force():
    # every key of s(S_n) carries its number of preimages under s
    store = _Store()
    for n in range(9):
        level = store.preimages(n)
        assert sum(level.values()) == math.factorial(n), n
        preimages = Counter(stack_sort(p) for p in perms(n))
        assert {tuple(q): w for q, w in level.items()} == preimages, n


def test_two_stack_sortable_counts_past_default_bound():
    for n in range(9, 12):
        assert count_t_stack_sortable(n, 2, max_n=11) == \
            west_zeilberger_count(n), n


def test_targeted_counts_match_image_weights():
    # the split sums equal the weight of the elements of s(S_n) that t-1
    # more passes sort, whether or not a shared store already holds the
    # tables
    weights = _Store()

    def expected(n, t):
        return sum(w for x, w in weights.preimages(n).items()
                   if weights.depth(x) <= t - 1)
    for n in range(11):
        for t in range(1, n + 2):
            assert count_t_stack_sortable(n, t) == expected(n, t), (n, t)
    with _sharing_levels():
        for n in range(11):
            for t in range(1, n + 2):
                assert count_t_stack_sortable(n, t) == expected(n, t), (n, t)
    with _sharing_levels():
        for n in range(10, -1, -1):
            for t in range(n + 1, 0, -1):
                assert count_t_stack_sortable(n, t) == expected(n, t), (n, t)


def _fail_on_any_level(monkeypatch) -> None:
    def failing(*args):
        raise AssertionError("the count built a level")
    monkeypatch.setattr(lab, "_join", failing)
    monkeypatch.setattr(lab, "_peel_join", failing)
    monkeypatch.setattr(lab, "_split_join", failing)
    monkeypatch.setattr(lab, "_split_pairs", failing)
    monkeypatch.setattr(_Store, "weighted", failing)


def test_one_stack_sortable_count_builds_no_level(monkeypatch):
    _fail_on_any_level(monkeypatch)
    for n in range(13):
        assert count_t_stack_sortable(n, 1, max_n=12) == catalan(n), n


def test_counts_past_n_minus_two_passes_build_no_level(monkeypatch):
    # n-1 passes sort all of S_n
    _fail_on_any_level(monkeypatch)
    for n in range(13):
        for t in {max(n - 1, 0), n, n + 1, 10**9}:
            assert count_t_stack_sortable(n, t, max_n=12) == \
                math.factorial(n), (n, t)


def test_two_stack_sortable_count_builds_no_level(monkeypatch):
    # the cut-point rows alone: no weighted or set level, and no sort
    calls = [_count_calls(monkeypatch, name)
             for name in ("_join", "_weigh", "_peel_join", "_stack_pass")]
    assert count_t_stack_sortable(12, 2, max_n=12) == \
        west_zeilberger_count(12)
    assert calls == [[], [], [], []]


def _cut_points(p) -> int:
    """kappa(p): the c = 1..n with s(p)[:c] = {1..c}."""
    image = stack_sort(p)
    return sum(max(image[:c]) == c for c in range(1, len(p) + 1))


def test_cut_count_rows_match_brute_distribution():
    store = _Store()
    for n in range(8):
        row = [0] * (n + 1)
        for p in perms(n):
            if is_t_stack_sortable(p, 2):
                row[_cut_points(p)] += 1
        assert store.cut_counts(n) == row, n


def test_cut_count_rows_sum_to_two_stack_sortable_counts():
    store = _Store()
    for n in range(9):
        assert sum(store.cut_counts(n)) == sum(
            is_t_stack_sortable(p, 2) for p in perms(n)), n
    # the closed form far past the cap, from a store that grew row 50 first
    store = _Store()
    store.cut_counts(50)
    for n in range(1, 51):
        assert sum(store.cut_counts(n)) == west_zeilberger_count(n), n


def test_cut_count_tails_match_identity_weights():
    # sum Q_r = H(1, r, 0), the level read kept as the oracle
    store = _Store()
    store.cut_counts(8)
    for r in range(9):
        assert sum(store.tails[r]) == _Store().reach(1, r, 0), r


def test_t_stack_sortable_rows_past_brute_range():
    # W_t(n) for n = 0..11, from the weighted s^2(S_n) and t-2 sorting
    # passes over it that the recurrence replaced; n <= 8 is also the
    # brute count
    rows = {
        3: [1, 1, 2, 6, 24, 114, 606, 3494, 21426, 137901, 922862, 6377818],
        4: [1, 1, 2, 6, 24, 120, 696, 4476, 31104, 229860, 1786158,
            14471480],
        5: [1, 1, 2, 6, 24, 120, 720, 4920, 36960, 298680, 2561292,
            23090220],
    }
    for t, row in rows.items():
        assert [count_t_stack_sortable(n, t, max_n=11)
                for n in range(12)] == row, t


def test_n_minus_two_passes_leave_only_the_endings_n_1():
    # West: n-2 passes sort every permutation of [n] but the (n-2)! that
    # end in n 1; the counts read weighted levels up to p = n-3
    for n in range(2, 12):
        assert count_t_stack_sortable(n, n - 2, max_n=11) == \
            math.factorial(n) - math.factorial(n - 2), n


def test_count_t_stack_sortable_matches_oracle():
    for n in range(9):
        for t in range(n + 2):
            expected = sum(is_t_stack_sortable(p, t) for p in perms(n))
            assert count_t_stack_sortable(n, t) == expected, (n, t)


def test_predicted_image_matches_definition():
    # positional barred-pattern search, not the descent-top rule; the
    # predicted set is byte-packed, as the image levels are
    for n in range(9):
        avoiders = [(p, tail_length(p)) for p in perms(n)
                    if avoids_barred_3241(p)]
        for t in range(n + 1):
            expected = {bytes(p) for p, tail in avoiders if tail >= t}
            assert _predicted_image(n, t) == expected, (n, t)


def test_predicted_image_matches_the_filter_of_s_m():
    # the generating tree against the filter of all of S_m it replaced,
    # from one store asked in descending m, which lists each size once
    with _sharing_levels():
        for m in range(8, -1, -1):
            avoiders = [q for q in perms(m) if descent_tops_are_lr_maxima(q)]
            for t in range(4):
                tail = tuple(range(m + 1, m + t + 1))
                assert _predicted_image(m + t, t) == {
                    bytes(q + tail) for q in avoiders}, (m, t)
        assert len(lab._store().avoiding) == 9


def test_count_avoiders_small():
    assert [count_avoiders(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]
    # a shared store grows the generating tree's rows once, to the largest n
    with _sharing_levels():
        assert [count_avoiders(n) for n in range(6, -1, -1)] == [
            203, 52, 15, 5, 2, 1, 1]
        assert len(lab._store().ends) == 7


def test_avoider_ends_count_the_avoiders_by_last_entry():
    # each row of the generating tree against a scan of S_n, entry by
    # entry; the listed avoiders end the same way
    store = _Store()
    for n in range(9):
        ends = Counter(p[-1] if p else 0 for p in perms(n)
                       if descent_tops_are_lr_maxima(p))
        row = store.avoider_ends(n)
        assert row == [ends[last] for last in range(n + 1)], n
        assert Counter(q[-1] if q else 0
                       for q in store.avoiders(n)) == ends, n


def test_count_avoiders_matches_scan_and_bell(monkeypatch):
    # the scan of S_n is the definition-shaped oracle for the tree count
    for n in range(11):
        scan = sum(1 for p in perms(n) if descent_tops_are_lr_maxima(p))
        assert count_avoiders(n) == scan, n
    # the bound guards enumeration cost; lift it to follow Bell further
    monkeypatch.setattr(lab, "HARD_MAX_N", 30)
    for n in range(31):
        assert count_avoiders(n, max_n=30) == bell(n), n


def test_explore_tables():
    rows = explore_open(3)
    assert [(r.n, r.count) for r in rows] == [(3, 6), (4, 5)]
    rows = explore_open(4)
    assert [(r.n, r.t, r.count) for r in rows] == [
        (4, 0, 24), (5, 1, 17), (6, 2, 15)]
    assert explore_open(1) == []
    assert [(r.n, r.count) for r in explore_open(2)] == [(2, 2)]


def test_bell_numbers_are_built_once_per_k(monkeypatch):
    lab.bell.cache_clear()
    triangles = _count_calls(monkeypatch, "bell_numbers")
    verify_all(8)
    assert triangles and len(triangles) == len(set(triangles))
    triangles.clear()
    verify_all(8)
    assert triangles == []


def test_explore_pins_fire_on_a_wrong_bell_number(monkeypatch):
    monkeypatch.setattr(lab, "bell", lambda k: bell(k) + 1)
    for m, max_n in ((2, None), (3, None), (7, 12)):
        with pytest.raises(AssertionError):
            explore_open(m, max_n=max_n)
    assert explore_open(1) == []


def test_verify_all_passes_at_small_bound():
    reports = verify_all(5)
    assert reports and all(r.passed for r in reports)
    assert {r.claim for r in reports} == {
        "theorem1", "theorem2", "prop2", "thm3_count", "catalan",
        "west_zeilberger"}


def test_verification_report_record():
    rec = verify_theorem1(2, 3).as_record()
    assert rec["claim"] == "theorem1" and rec["pass"] is True
    assert set(rec) == {"claim", "parameters", "expected", "observed", "pass"}

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
)
from stacksortlab import lab
from stacksortlab.lab import (_brute_image, _image, _predicted_image,
                              _sharing_levels, _sorted_after, _Store)

# ---------------------------------------------------------------------------
# exact sequences


def test_bell_examples():
    assert bell(0) == 1
    assert bell(4) == 15
    assert bell(6) == 203


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
    assert [len(_image(n, 3)) for n in range(12)] == [
        1, 1, 1, 1, 1, 2, 5, 15, 52, 207, 912, 4456]
    assert [len(_image(n, 4)) for n in range(12)] == [
        1, 1, 1, 1, 1, 1, 2, 5, 15, 52, 203, 882]


def test_twice_sorted_levels_match_brute_oracle():
    store = _Store()
    store.image(8, 2)
    twice = store.levels[2]
    for k in range(9):
        assert {tuple(x) for x in twice[k]} == _brute_image(k, 2), k


def test_sorted_after_matches_stack_sort():
    store = _Store()
    after = [_sorted_after(store.image(j, 1), j) for j in range(8)]
    for j in range(8):
        image = _brute_image(j, 1)
        for r in range(1, j + 2):
            expected = {stack_sort((r,) + tuple(v + (v >= r) for v in b))
                        for b in image}
            assert {tuple(y) for y in after[j][r - 1]} == expected, (j, r)


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


def test_verify_all_builds_each_level_once(monkeypatch):
    joins = _count_calls(monkeypatch, "_join")
    rows = _count_calls(monkeypatch, "_sorted_after")
    assert all(r.passed for r in verify_all(8))
    # s(S_k) for k = 1..6, read by the rows of s(S_j) for j = 0..6, and
    # s^2(S_k) for k = 1..8; the sortable counts build no level
    assert sorted((k, t) for _, _, k, t in joins) == sorted(
        [(k, 1) for k in range(1, 7)] + [(k, 2) for k in range(1, 9)])
    assert [j for _, j in rows] == list(range(7))


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
    joins = _count_calls(monkeypatch, "_join")
    image_of_iterate(7, 3)
    once = len(joins)
    image_of_iterate(7, 3)
    assert once > 0 and len(joins) == 2 * once


def test_shared_store_matches_brute_oracle_out_of_order():
    # descending n, then ascending t: the store is asked for levels below
    # the ones it has already grown, and for passes out of size order
    with _sharing_levels():
        for n in range(8, -1, -1):
            for t in range(1, n + 1):
                assert {tuple(q) for q in _image(n, t)} == \
                    _brute_image(n, t), (n, t)


def test_passes_stop_at_the_identity_for_any_t():
    # every permutation of [5] is sorted after 4 passes; a larger t must
    # neither recurse nor loop once per pass
    assert image_of_iterate(5, 10**4).count == 1
    assert count_t_stack_sortable(5, 10**4) == 120
    with _sharing_levels():
        assert len(_image(5, 10**9)) == 1
        chain = lab._STORE.get().passes[5]
        # s^2, s^3 and s^4 of S_5; s^4 = s^{n-1} sorts every permutation
        assert [len(level) for level in chain] == [
            len(_brute_image(5, t)) for t in (2, 3, 4)]
        assert len(chain[-1]) == 1
        assert _image(5, 3) is chain[1]


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
    with pytest.raises(ValueError):
        image_of_iterate(4, -1)


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


def test_verify_named_counts():
    assert verify_thm3_count(6).observed == 203
    assert verify_catalan(6).observed == 132
    assert verify_west_zeilberger(5).observed == 91
    assert all(r.passed for r in (verify_thm3_count(6), verify_catalan(6),
                                  verify_west_zeilberger(5)))


def test_count_t_stack_sortable_examples():
    assert count_t_stack_sortable(4, 1) == 14
    assert count_t_stack_sortable(3, 2) == 6
    # closed form and brute force agree (the why of the 91)
    assert count_t_stack_sortable(5, 2) == west_zeilberger_count(5) == 91


def test_image_weights_match_brute_force():
    # every key of s^t(S_n) carries its number of preimages under s^t
    for n in range(9):
        for t in (1, 2, 3):
            level = _image(n, t)
            assert sum(level.values()) == math.factorial(n), (n, t)
            preimages = Counter(stack_sort_iterate(p, t) for p in perms(n))
            assert {tuple(q): w for q, w in level.items()} == preimages, (n, t)


def test_two_stack_sortable_counts_past_default_bound():
    for n in range(9, 12):
        assert count_t_stack_sortable(n, 2, max_n=11) == \
            west_zeilberger_count(n), n


def test_targeted_counts_match_image_weights():
    # the split sums equal the weight of the identity in the full image,
    # whether or not a shared store already holds the rows
    for n in range(11):
        for t in (1, 2):
            expected = _image(n, t)[bytes(range(1, n + 1))]
            assert count_t_stack_sortable(n, t) == expected, (n, t)
    with _sharing_levels():
        for n in range(10, -1, -1):
            for t in (2, 1):
                assert count_t_stack_sortable(n, t) == \
                    _image(n, t)[bytes(range(1, n + 1))], (n, t)


def test_one_stack_sortable_count_builds_no_level(monkeypatch):
    def failing(*args):
        raise AssertionError("the 1-sortable count built a level")
    monkeypatch.setattr(lab, "_join", failing)
    monkeypatch.setattr(lab, "_sorted_after", failing)
    for n in range(13):
        assert count_t_stack_sortable(n, 1, max_n=12) == catalan(n), n


def test_two_stack_sortable_count_builds_no_twice_level(monkeypatch):
    joins = _count_calls(monkeypatch, "_join")
    assert count_t_stack_sortable(12, 2, max_n=12) == \
        west_zeilberger_count(12)
    assert joins and all(t == 1 for _, _, _, t in joins)


def test_count_t_stack_sortable_matches_oracle():
    for n in range(9):
        for t in range(n + 1):
            expected = sum(is_t_stack_sortable(p, t) for p in perms(n))
            assert count_t_stack_sortable(n, t) == expected, (n, t)


def test_predicted_image_matches_definition():
    # positional barred-pattern search, not the descent-top rule
    for n in range(9):
        avoiders = [(p, tail_length(p)) for p in perms(n)
                    if avoids_barred_3241(p)]
        for t in range(n + 1):
            expected = {p for p, tail in avoiders if tail >= t}
            assert _predicted_image(n, t) == expected, (n, t)


def test_count_avoiders_small():
    assert [count_avoiders(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]


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

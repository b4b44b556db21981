import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from labelsplit import (CorrectionPolicy, EvaluationConfig, bonferroni_threshold,
                        fisher_exact_two_sided)
from labelsplit import stats
from labelsplit.stats import fisher_p_values

from oracles import fisher_two_sided_bruteforce


def test_sample_directly_precedes_p_value():
    # one-in-C(21,5) table: all 5 "pos" occurrences land in one column
    p = fisher_exact_two_sided(0, 16, 5, 0)
    assert p == pytest.approx(1 / math.comb(21, 5), rel=1e-9)
    assert p == pytest.approx(4.91e-5, rel=1e-2)


def test_all_negative_columns_give_one():
    assert fisher_exact_two_sided(0, 16, 0, 5) == 1.0


def test_equal_columns_give_one():
    for k, n in [(1, 3), (2, 4), (5, 9), (0, 7), (1000, 2000), (37, 5000), (4999, 5000)]:
        assert fisher_exact_two_sided(k, n - k, k, n - k) == 1.0


def test_all_zero_table_is_one_by_convention():
    assert fisher_exact_two_sided(0, 0, 0, 0) == 1.0


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        fisher_exact_two_sided(-1, 0, 0, 0)
    # on both paths, whichever count is negative
    big = stats._EXACT_TOTAL
    for cells in [(3, -1, 2, 2), (1, 1, -1, 5), (2, 2, 2, -1), (big, 3, -1, big)]:
        with pytest.raises(ValueError):
            fisher_exact_two_sided(*cells)


@pytest.mark.parametrize("cells", [(2.5, 3, 1, 4), (2, 3, 1, 4.5), (3.0, 3, 1, 4),
                                   (1, "2", 3, 4), (400.5, 10, 10, 400)])
def test_non_integer_counts_rejected(cells):
    # 2.5 of 5.5 occurrences is no table, on either path
    with pytest.raises(ValueError, match="integers"):
        fisher_exact_two_sided(*cells)
    with pytest.raises(ValueError, match="integers"):
        fisher_p_values([tuple(cells)])


def test_integer_like_counts_are_accepted():
    # operator.index takes a bool as 0 or 1
    assert fisher_exact_two_sided(True, 4, False, 5) == fisher_exact_two_sided(1, 4, 0, 5)


def test_point_probability_bounds():
    # the observed table's own probability never exceeds the two-sided p
    rng = random.Random(3)
    for _ in range(100):
        cells = [rng.randrange(0, 8) for _ in range(4)]
        if sum(cells) == 0:
            continue
        p = fisher_exact_two_sided(*cells)
        n1 = cells[0] + cells[1]
        n2 = cells[2] + cells[3]
        r = cells[0] + cells[2]
        point = (math.comb(n1, cells[0]) * math.comb(n2, r - cells[0])
                 / math.comb(n1 + n2, r))
        assert point - 1e-12 <= p <= 1.0


def test_matches_bruteforce_on_random_tables():
    # every margin here is on the exact path: p is the exact rational p rounded once
    rng = random.Random(11)
    for _ in range(200):
        cells = [rng.randrange(0, 11) for _ in range(4)]
        assert fisher_exact_two_sided(*cells) == fisher_two_sided_bruteforce(*cells)


def test_matches_bruteforce_at_larger_counts():
    # ties at the cutoff: the mirror table of (a, b, b, a) is equally likely;
    # far tails: the walk toward the near end stops long before it
    tables = [(480, 520, 520, 480), (430, 570, 570, 430), (300, 700, 400, 600),
              (1200, 800, 800, 1200), (5, 1400, 60, 900)]
    rng = random.Random(29)
    for _ in range(12):
        n1, n2 = rng.randrange(100, 1500), rng.randrange(100, 1500)
        a1_pos = rng.randrange(0, n1 + 1)
        a2_pos = min(n2, max(0, round(a1_pos * n2 / n1) + rng.randrange(-40, 41)))
        tables.append((a1_pos, n1 - a1_pos, a2_pos, n2 - a2_pos))
    for cells in tables:
        expected = fisher_two_sided_bruteforce(*cells)
        assert fisher_exact_two_sided(*cells) == pytest.approx(expected, rel=1e-9, abs=0)


def test_subnormal_p_keeps_the_far_tail():
    # the tables between the two tails are up to 1e314 times likelier than
    # the observed one; the equally likely mirror table must still count
    p = fisher_exact_two_sided(0, 525, 525, 0)
    assert p == pytest.approx(2 / math.comb(1050, 525), rel=1e-6, abs=0)


@st.composite
def margin_tables(draw):
    """Several tables on each of one to three margins (n1, n2, r), the
    margins drawn small, just below and just above the exact path's bound."""
    bound = stats._EXACT_TOTAL
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        total = draw(st.sampled_from([st.integers(0, 30), st.integers(bound - 40, bound),
                                      st.integers(bound + 1, bound + 60)]).flatmap(lambda s: s))
        n1 = draw(st.sampled_from([total // 2, 0, total]) | st.integers(0, total))
        n2 = total - n1
        # r = 0 and r = N have a one-point support, as have n1 = 0 and n2 = 0
        r = draw(st.sampled_from([0, total]) | st.integers(0, total))
        lo, hi = max(0, r - n2), min(r, n1)
        xs = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=5))
        if n1 == n2:
            # the mirror table r - x is exactly as likely: a tie at the cutoff
            xs += [r - x for x in xs]
        tables += [(x, n1 - x, r - x, n2 - r + x) for x in xs]
    return tables


@settings(max_examples=80, deadline=None)
@given(margin_tables())
@example([(0, 525, 525, 0), (525, 0, 0, 525), (262, 263, 263, 262)])
@example([(0, 0, 0, 0), (0, 7, 0, 9), (7, 0, 9, 0), (3, 0, 0, 4)])
def test_batched_p_equals_single_table_p_and_the_oracle(tables):
    batched = fisher_p_values(tables)
    assert set(batched) == set(tables)
    for cells in tables:
        p = batched[cells]
        assert p == fisher_exact_two_sided(*cells)
        if sum(cells) <= stats._EXACT_TOTAL:
            assert p == fisher_two_sided_bruteforce(*cells)
        else:
            assert p == pytest.approx(fisher_two_sided_bruteforce(*cells), rel=1e-9, abs=0)


def test_tables_on_one_margin_are_summed_once(monkeypatch):
    # four tables on two margins below the bound: one term list per margin
    calls = []
    exact = stats._exact
    monkeypatch.setattr(stats, "_exact", lambda *args: calls.append(args[1:4]) or exact(*args))
    tables = [(1, 4, 3, 2), (2, 3, 2, 3), (0, 5, 4, 1), (1, 1, 1, 1)]
    p = fisher_p_values(tables)
    assert sorted(calls) == [(2, 2, 2), (5, 5, 4)]
    assert p == {t: fisher_two_sided_bruteforce(*t) for t in tables}


@given(st.tuples(*[st.integers(0, 25)] * 4))
def test_symmetry_under_row_and_column_swaps(cells):
    a, b, c, d = cells
    p = fisher_exact_two_sided(a, b, c, d)
    assert fisher_exact_two_sided(c, d, a, b) == pytest.approx(p, rel=1e-9, abs=0)
    assert fisher_exact_two_sided(b, a, d, c) == pytest.approx(p, rel=1e-9, abs=0)


def test_margin_preserving_swap_toward_balance_never_lowers_p():
    # verified against the brute force rather than asserted analytically
    rng = random.Random(5)
    for _ in range(50):
        a = rng.randrange(1, 8)
        d = rng.randrange(1, 8)
        b = rng.randrange(0, 8)
        c = rng.randrange(0, 8)
        # moving one observation along the diagonal keeps all margins
        p_before = fisher_two_sided_bruteforce(a, b, c, d)
        p_after = fisher_two_sided_bruteforce(a - 1, b + 1, c + 1, d - 1)
        imbalance_before = abs(a * d - b * c)
        imbalance_after = abs((a - 1) * (d - 1) - (b + 1) * (c + 1))
        if imbalance_after <= imbalance_before:
            assert p_after >= p_before - 1e-12


def test_scipy_agreement():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(23)
    for _ in range(100):
        cells = [rng.randrange(0, 15) for _ in range(4)]
        ours = fisher_exact_two_sided(*cells)
        table = [[cells[0], cells[2]], [cells[1], cells[3]]]
        theirs = scipy_stats.fisher_exact(table, alternative="two-sided")[1]
        assert ours == pytest.approx(theirs, rel=1e-8, abs=0)


def test_large_counts_do_not_overflow():
    p = fisher_exact_two_sided(5000, 40, 60, 4900)
    assert 0.0 <= p <= 1e-100


def test_bonferroni_sample_values():
    assert bonferroni_threshold(0.01, 4) == 0.0025
    assert bonferroni_threshold(0.37, 1) == 0.37
    assert bonferroni_threshold(0.05, 56) == pytest.approx(8.9285714285714e-4, rel=1e-10)


def test_bonferroni_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bonferroni_threshold(0.01, 0)
    with pytest.raises(ValueError):
        bonferroni_threshold(0.0, 4)
    with pytest.raises(ValueError):
        bonferroni_threshold(1.0, 4)


@pytest.mark.parametrize("alpha", ["0.5", None, [0.5], True])
def test_an_alpha_that_is_no_number_is_refused_by_name(alpha):
    # a string or None used to fail comparing with 0, as Python's own
    # TypeError naming neither the argument nor the value
    message = f"alpha must be in (0, 1), got {alpha!r}"
    with pytest.raises(ValueError) as bonferroni:
        bonferroni_threshold(alpha, 4)
    with pytest.raises(ValueError) as config:
        EvaluationConfig(alpha=alpha)
    assert str(bonferroni.value) == str(config.value) == message


def test_correction_policy_thresholds():
    assert CorrectionPolicy("none").threshold(0.01, 4) == 0.01
    assert CorrectionPolicy("bonferroni").threshold(0.01, 4) == 0.0025
    with pytest.raises(ValueError):
        CorrectionPolicy("holm")
    with pytest.raises(ValueError):
        CorrectionPolicy("bonferroni", "global")

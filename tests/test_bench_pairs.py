"""The summary and claim rule of ``bench_pairs.py``, on fixed numbers: no
benchmark runs here."""

from bench_pairs import claim_holds, summarize

# work_s of ten alternating pairs of one workload and seed
PARENT = [0.07819, 0.07849, 0.08318, 0.08025, 0.07932, 0.07759, 0.07719, 0.07824, 0.07865, 0.07935]
CHANGE = [0.07894, 0.07936, 0.07944, 0.07877, 0.07995, 0.07839, 0.07977, 0.07869, 0.07558, 0.07676]


def test_summary_fields():
    assert summarize(PARENT, CHANGE) == {
        "parent": PARENT,
        "change": CHANGE,
        "parent_median": 0.07857,
        "change_median": 0.07886,
        "parent_q1_q3": [0.0782, 0.07934],
        "change_q1_q3": [0.07846, 0.07942],
        "parent_iqr": 0.00114,
        "relative_change": 0.0036,
        "change_lower_in_pairs": 4,
        "change_median_inside_parent_q1_q3": True,
    }


def test_ties_count_for_neither_side():
    parent = [1.0, 2.0, 3.0, 4.0]
    summary = summarize(parent, [1.0, 1.5, 3.0, 4.5])
    assert summary["change_lower_in_pairs"] == 1
    assert not claim_holds(parent, parent)


def test_a_claim_needs_nine_of_ten_wins_and_a_median_gap_above_the_parent_iqr():
    parent = [1.0, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # IQR 0.045
    assert claim_holds(parent, [p - 0.05 for p in parent])
    assert not claim_holds(parent, [p - 0.04 for p in parent])  # ten wins, a gap below the IQR
    assert claim_holds(parent, [p - 0.05 for p in parent[:9]] + parent[9:])  # nine wins and a tie
    assert not claim_holds(parent, [p - 0.05 for p in parent[:8]] + parent[8:])  # eight wins and two ties
    assert not claim_holds(parent, [p + 0.05 for p in parent])

"""Tests for the benchmark's reductions: python3 perfbench/test_stats.py"""

import unittest

import stats


class PercentileEligibility(unittest.TestCase):
    def test_interpolated_percentile(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(xs, 99), 99.01)
        self.assertEqual(stats.percentile(list(range(1, 102)), 50), 51)
        self.assertEqual(stats.percentile([7.0], 50), 7.0)

    def test_median_does_not_jump_when_middle_ranks_swap(self):
        a = [1.0] * 9 + [10.0, 11.0] + [20.0] * 9
        b = [1.0] * 9 + [11.0, 10.0] + [20.0] * 9
        self.assertEqual(stats.percentile(a, 50), stats.percentile(b, 50))

    def test_samples_beyond(self):
        self.assertEqual(stats.beyond(20, 50), 10)
        self.assertEqual(stats.beyond(19, 50), 9)
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertEqual(stats.beyond(902, 99), 10)
        self.assertEqual(stats.beyond(901, 99), 9)
        self.assertEqual(stats.beyond(0, 50), 0)

    def test_eligibility_needs_ten_beyond(self):
        self.assertTrue(stats.eligible(20, 50))
        self.assertFalse(stats.eligible(19, 50))
        self.assertTrue(stats.eligible(902, 99))
        self.assertFalse(stats.eligible(901, 99))
        # One sample per run, as a single long call gives: never a percentile.
        self.assertFalse(stats.eligible(1, 50))

    def test_latency_reports_percentile_when_eligible(self):
        xs = [float(i) for i in range(1, 21)]
        self.assertEqual(stats.latency(xs, 50), (10.5, True))

    def test_latency_falls_back_to_largest_sample(self):
        xs = [float(i) for i in range(1, 21)]
        self.assertEqual(stats.latency(xs, 99), (20.0, False))
        self.assertEqual(stats.latency([3.0, 5.0], 50), (5.0, False))

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 50), 2.5)


class FailRatio(unittest.TestCase):
    def test_arithmetic(self):
        self.assertEqual(stats.fail_ratio(3640, 0), 0.0)
        self.assertEqual(stats.fail_ratio(40, 1), 0.025)
        self.assertEqual(stats.fail_ratio(20, 20), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.fail_ratio(0, 0)
        with self.assertRaises(ValueError):
            stats.fail_ratio(10, 11)
        with self.assertRaises(ValueError):
            stats.fail_ratio(10, -1)


if __name__ == "__main__":
    unittest.main()

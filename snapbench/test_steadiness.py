"""Tests of the steadiness report's quartile and spread math."""
import math
import statistics
import unittest

from steadiness import spread, worsening


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(spread(values), (med, q1, q3, (q3 - q1) / med))

    def test_known_values(self):
        med, q1, q3, rel = spread([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((q1, med, q3), (1.5, 3.0, 4.5))
        self.assertAlmostEqual(rel, 1.0)

    def test_constant_runs_have_zero_spread(self):
        self.assertEqual(spread([100.0] * 10)[3], 0.0)

    def test_zero_median_is_infinite_spread(self):
        self.assertTrue(math.isinf(spread([0.0, 0.0, 0.0])[3]))


class WorseningTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertAlmostEqual(worsening(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(worsening(10.0, 9.0, "lower"), -0.1)

    def test_higher_is_better(self):
        self.assertAlmostEqual(worsening(10.0, 9.0, "higher"), 0.1)
        self.assertAlmostEqual(worsening(10.0, 11.0, "higher"), -0.1)


if __name__ == "__main__":
    unittest.main()

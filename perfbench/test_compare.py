"""Tests that the parent-vs-change comparison can fail.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

from compare import compare

END_TO_END = [
    {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "goodput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def results(p50=100.0, goodput=50.0, setup=1.0):
    """Ten synthetic runs of one workload with a little spread."""
    jitter = [0.99, 1.01, 1.0, 0.995, 1.005, 0.998, 1.002, 1.0, 0.997, 1.003]
    return {"w": {
        "p50_ms": [p50 * j for j in jitter],
        "goodput_per_s": [goodput * j for j in jitter],
        "setup_s": [setup * j for j in jitter],
    }}


def regressed(verdicts):
    return sorted(v["metric"] for v in verdicts if v["regressed"])


class CompareTest(unittest.TestCase):
    def test_identical_results_pass(self):
        self.assertEqual(regressed(compare(END_TO_END, results(), results())), [])

    def test_lower_is_better_metric_30_percent_worse_is_flagged(self):
        verdicts = compare(END_TO_END, results(), results(p50=130.0))
        self.assertEqual(regressed(verdicts), ["p50_ms"])

    def test_higher_is_better_metric_30_percent_worse_is_flagged(self):
        verdicts = compare(END_TO_END, results(), results(goodput=35.0))
        self.assertEqual(regressed(verdicts), ["goodput_per_s"])

    def test_setup_gets_its_own_wider_bound(self):
        self.assertEqual(regressed(compare(END_TO_END, results(), results(setup=1.2))), [])
        verdicts = compare(END_TO_END, results(), results(setup=1.3))
        self.assertEqual(regressed(verdicts), ["setup_s"])

    def test_improvements_pass(self):
        verdicts = compare(END_TO_END, results(), results(p50=70.0, goodput=65.0))
        self.assertEqual(regressed(verdicts), [])
        self.assertLess(min(v["worse_by"] for v in verdicts), 0)

    def test_missing_metric_is_a_regression(self):
        change = results()
        del change["w"]["p50_ms"]
        self.assertEqual(regressed(compare(END_TO_END, results(), change)), ["p50_ms"])


if __name__ == "__main__":
    unittest.main()

"""Unit tests of the compare verdicts (run by `dune runtest`)."""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import compare  # noqa: E402

STEADY = [100.0, 101.0, 99.0, 100.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.0]


def scaled(values, k):
    return [v * k for v in values]


class Spread(unittest.TestCase):
    def test_quartiles_over_median(self):
        # statistics.quantiles([1..5], n=4) is [1.5, 3, 4.5].
        self.assertAlmostEqual(compare.spread([1, 2, 3, 4, 5]), 1.0)

    def test_constant(self):
        self.assertEqual(compare.spread([7.0] * 10), 0.0)

    def test_single_value(self):
        self.assertEqual(compare.spread([3.0]), 0.0)


class Verdict(unittest.TestCase):
    def test_lower_better_regression(self):
        self.assertEqual(compare.verdict(STEADY, scaled(STEADY, 1.3), "lower", 0.1), "regressed")

    def test_lower_better_improvement(self):
        self.assertEqual(compare.verdict(STEADY, scaled(STEADY, 0.7), "lower", 0.1), "improved")

    def test_higher_better_flips(self):
        self.assertEqual(compare.verdict(STEADY, scaled(STEADY, 1.3), "higher", 0.1), "improved")
        self.assertEqual(compare.verdict(STEADY, scaled(STEADY, 0.7), "higher", 0.1), "regressed")

    def test_within_bound(self):
        self.assertEqual(compare.verdict(STEADY, scaled(STEADY, 1.05), "lower", 0.1), "unchanged")

    def test_exactly_at_bound_is_not_a_regression(self):
        self.assertEqual(compare.verdict([100.0] * 4, [110.0] * 4, "lower", 0.1), "unchanged")

    def test_wide_spread_is_unresolved(self):
        noisy = [50.0, 150.0, 100.0, 80.0, 120.0, 60.0, 140.0, 100.0]
        self.assertEqual(compare.verdict(STEADY, noisy, "lower", 0.1), "unresolved")
        self.assertEqual(compare.verdict(noisy, scaled(STEADY, 3), "lower", 0.1), "unresolved")

    def test_worsening_sign(self):
        self.assertAlmostEqual(compare.worsening([10.0], [12.0], "lower"), 0.2)
        self.assertAlmostEqual(compare.worsening([10.0], [12.0], "higher"), -0.2)


class Files(unittest.TestCase):
    def write(self, rows):
        f = tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False)
        for r in rows:
            f.write(json.dumps(r) + "\n")
        f.close()
        self.addCleanup(os.unlink, f.name)
        return f.name

    def row(self, workload, value, failed=0):
        metrics = {"ops_s": {"value": value, "unit": "1/s"}}
        return {"workload": workload, "seed": 1,
                "result": {"correct": True, "attempted": 100, "failed": failed,
                           "metrics": metrics}}

    def test_load_groups_by_workload(self):
        path = self.write([self.row("a", 1.0), self.row("b", 3.0, failed=4), self.row("a", 2.0)])
        self.assertEqual(compare.load(path),
                         {"a": {"ops_s": [1.0, 2.0], "failed_ratio": [0.0, 0.0]},
                          "b": {"ops_s": [3.0], "failed_ratio": [0.04]}})

    def test_compare_rows_per_workload(self):
        bench = {"end_to_end": [{"name": "ops_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}]}
        base = self.write([self.row("a", v) for v in STEADY] + [self.row("b", v) for v in STEADY])
        new = self.write([self.row("a", v) for v in scaled(STEADY, 0.5)]
                         + [self.row("b", v) for v in STEADY])
        rows = compare.compare(compare.load(base), compare.load(new), bench)
        self.assertEqual([(r[0], r[1], r[-1]) for r in rows],
                         [("a", "failed_ratio", "unchanged"), ("a", "ops_s", "regressed"),
                          ("b", "failed_ratio", "unchanged"), ("b", "ops_s", "unchanged")])

    def test_failed_operations_regress_whatever_the_metrics(self):
        bench = {"end_to_end": [{"name": "ops_s", "unit": "1/s", "better": "higher",
                                 "bound": 0.1}]}
        base = self.write([self.row("a", v) for v in STEADY])
        # Faster, but one run of ten failed an operation.
        new = self.write([self.row("a", v, failed=1 if i == 3 else 0)
                          for i, v in enumerate(scaled(STEADY, 2.0))])
        rows = compare.compare(compare.load(base), compare.load(new), bench)
        self.assertEqual([(r[1], r[-1]) for r in rows],
                         [("failed_ratio", "regressed"), ("ops_s", "improved")])

    def test_failures_no_worse_than_base_are_unchanged(self):
        self.assertEqual(compare.failed_row("a", [0.02, 0.0], [0.0, 0.01])[-1], "unchanged")


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark's own rules: python3 perfbench/test_run.py"""

import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def metric(name, unit="s"):
    return {"name": name, "unit": unit, "better": "lower"}


class NameGrammarTest(unittest.TestCase):
    def test_accepts_letters_digits_underscore_dot_dash(self):
        for name in ("setup_s", "core.user_read_self_s", "p-99", "A9"):
            self.assertTrue(run.valid_name(name), name)

    def test_rejects_everything_else(self):
        for name in ("", "has space", "slash/name", "pct%", "ü",
                     "x" * 65, None):
            self.assertFalse(run.valid_name(name), name)


class DeclaredMetricsTest(unittest.TestCase):
    def spec(self, end_to_end=1, per_layer=1):
        return {"end_to_end": [metric(f"e{i}") for i in range(end_to_end)],
                "per_layer": [metric(f"p{i}") for i in range(per_layer)]}

    def test_caps(self):
        run.check_declared(self.spec(16, 128))
        with self.assertRaises(run.BenchError):
            run.check_declared(self.spec(17, 1))
        with self.assertRaises(run.BenchError):
            run.check_declared(self.spec(1, 129))
        with self.assertRaises(run.BenchError):
            run.check_declared(self.spec(0, 1))

    def test_names_are_unique_across_both_lists(self):
        spec = {"end_to_end": [metric("a")], "per_layer": [metric("a")]}
        with self.assertRaises(run.BenchError):
            run.check_declared(spec)

    def test_units_follow_their_grammar(self):
        spec = {"end_to_end": [metric("a", "per second")],
                "per_layer": [metric("b")]}
        with self.assertRaises(run.BenchError):
            run.check_declared(spec)

    def test_repository_benchmark_is_valid(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        end_to_end, _ = run.check_declared(spec)
        self.assertIn("setup_s", [m["name"] for m in end_to_end])


class FailedRunsTest(unittest.TestCase):
    def test_digest_mismatch_fails_every_run(self):
        self.assertEqual(run.count_failed(100, 0, "aa", "bb"), 100)

    def test_harness_failures_count_when_digest_matches(self):
        # Exceptions, violations and pass-to-pass mismatches, as counted by
        # the harness's run ledger.
        self.assertEqual(run.count_failed(100, 3, "aa", "aa"), 3)

    def test_unrecorded_seed_keeps_harness_count(self):
        self.assertEqual(run.count_failed(100, 0, "aa", None), 0)


class SelectMetricsTest(unittest.TestCase):
    measured = {"a": {"value": 1.5, "unit": "s"}}

    def test_end_to_end_metric_must_be_measured(self):
        with self.assertRaises(run.BenchError):
            run.select_metrics(self.measured, [metric("a"), metric("b")],
                               fill_missing=False)

    def test_unexercised_per_layer_metric_reads_zero(self):
        selected = run.select_metrics(self.measured,
                                      [metric("a"), metric("b", "count")],
                                      fill_missing=True)
        self.assertEqual(selected, {"a": {"value": 1.5, "unit": "s"},
                                    "b": {"value": 0.0, "unit": "count"}})


if __name__ == "__main__":
    unittest.main()

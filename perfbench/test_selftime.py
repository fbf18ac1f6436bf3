"""Tests for the self-time reader on hand-built traces.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from selftime import self_times  # noqa: E402


def span(name, ts, dur, tid=1, pid=1):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": pid, "tid": tid}


class SelfTimeTest(unittest.TestCase):
    def assertSeconds(self, totals, expected):
        self.assertEqual(set(totals), set(expected))
        for name, seconds in expected.items():
            self.assertAlmostEqual(totals[name], seconds, places=9, msg=name)

    def test_single_span_is_all_self(self):
        self.assertSeconds(self_times([span("a", 0, 100)]), {"a": 100e-6})

    def test_nested_spans_subtract_children(self):
        events = [
            span("root", 0, 1000),
            span("child", 100, 300),
            span("grandchild", 150, 100),
        ]
        self.assertSeconds(self_times(events),
                           {"root": 700e-6, "child": 200e-6, "grandchild": 100e-6})

    def test_siblings_are_not_nested(self):
        # Back-to-back siblings, the second starting exactly where the first
        # ends, and a third starting a rounding error before that.
        events = [
            span("root", 0, 1000),
            span("a", 100, 200),
            span("b", 300, 200),
            span("c", 499.9, 100),
        ]
        self.assertSeconds(self_times(events),
                           {"root": 500e-6, "a": 200e-6, "b": 200e-6, "c": 100e-6})

    def test_spans_on_other_threads_are_never_children(self):
        events = [
            span("main", 0, 1000, tid=1),
            span("worker", 100, 800, tid=2),
            span("work", 200, 100, tid=2),
            span("other", 100, 800, tid=3, pid=2),
        ]
        self.assertSeconds(self_times(events),
                           {"main": 1000e-6, "worker": 700e-6, "work": 100e-6,
                            "other": 800e-6})

    def test_names_accumulate_across_spans_and_threads(self):
        events = [
            span("x", 0, 100, tid=1),
            span("x", 0, 50, tid=2),
            span("y", 10, 20, tid=2),
        ]
        self.assertSeconds(self_times(events), {"x": 130e-6, "y": 20e-6})

    def test_child_overrunning_parent_by_rounding_is_clipped(self):
        events = [span("p", 0, 100), span("c", 50, 50.3)]
        self.assertSeconds(self_times(events), {"p": 50e-6, "c": 50.3e-6})

    def test_instants_and_counters_are_ignored(self):
        events = [
            span("a", 0, 10),
            {"name": "mark", "ph": "i", "ts": 5, "pid": 1, "tid": 1},
            {"name": "level", "ph": "C", "ts": 5, "pid": 1, "tid": 1, "args": {"v": 1}},
        ]
        self.assertSeconds(self_times(events), {"a": 10e-6})


if __name__ == "__main__":
    unittest.main()

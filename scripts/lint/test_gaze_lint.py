#!/usr/bin/env python3
"""Per-rule tests for gaze_lint, driven by the fixture trees in
scripts/lint/fixtures/: every rule has one violating fixture file
(asserting rule id + exact line), the clean tree must report nothing,
and the suppression comment grammar (justified allow() on the same
line, the preceding line, or a comment block; unjustified and typo'd
allow() are findings) is pinned. Run directly or via CTest
(gaze_lint_selftest, tier1)."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gaze_lint  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")


def lint(tree):
    findings = gaze_lint.run_lint(os.path.join(FIXTURES, tree), ["src"])
    return [(f.path, f.line, f.rule) for f in findings]


class ViolationFixtures(unittest.TestCase):
    """One fixture file per rule; ids and lines must match exactly."""

    def setUp(self):
        self.findings = lint("violations")

    def assert_found(self, path, line, rule):
        self.assertIn((path, line, rule), self.findings)

    def test_wall_clock(self):
        self.assert_found("src/harness/uses_clock.cc", 8, "wall-clock")
        self.assert_found("src/harness/uses_clock.cc", 10, "wall-clock")

    def test_unordered_in_output(self):
        self.assert_found("src/harness/export.cc", 9,
                          "unordered-in-output")

    def test_pointer_order(self):
        self.assert_found("src/sim/pointer_key.hh", 11, "pointer-order")
        self.assert_found("src/sim/pointer_key.hh", 16, "pointer-order")

    def test_raw_thread(self):
        self.assert_found("src/sim/rogue_thread.cc", 7, "raw-thread")
        self.assert_found("src/sim/rogue_thread.cc", 9, "raw-thread")

    def test_raw_thread_worker_team_in_sim(self):
        # The allow-list names driver/thread_pool.hh alone: a worker
        # team inside the simulator is a finding.
        self.assert_found("src/sim/threaded.cc", 8, "raw-thread")

    def test_raw_thread_shims_are_allow_listed(self):
        # The fixture thread_pool.hh holds std::thread members but is
        # a sanctioned shim path: the rule must stay silent there.
        self.assertNotIn(
            "src/driver/thread_pool.hh",
            [path for path, _, rule in self.findings
             if rule == "raw-thread"])

    def test_hot_container(self):
        self.assert_found("src/sim/hot_map.cc", 6, "hot-container")
        self.assert_found("src/sim/hot_map.cc", 7, "hot-container")
        self.assert_found("src/prefetchers/hot_list.cc", 5,
                          "hot-container")

    def test_hot_container_scoped_to_hot_dirs(self):
        # export.cc deliberately holds an unordered_map (for the
        # unordered-in-output fixture) but lives in harness/: the
        # hot-container rule must stay out of it.
        self.assertNotIn(
            "src/harness/export.cc",
            [path for path, _, rule in self.findings
             if rule == "hot-container"])

    def test_using_namespace_header(self):
        self.assert_found("src/common/using_ns.hh", 6,
                          "using-namespace-header")

    def test_pragma_once(self):
        self.assert_found("src/common/no_pragma.hh", 1, "pragma-once")

    def test_serve_isolation_core_including_serve(self):
        self.assert_found("src/sim/uses_serve.cc", 3,
                          "serve-isolation")

    def test_serve_isolation_host_time_in_serve(self):
        self.assert_found("src/serve/host_clock.cc", 3,
                          "serve-isolation")
        self.assert_found("src/serve/host_clock.cc", 4,
                          "serve-isolation")

    def test_serve_including_serve_is_clean(self):
        # serve/ including its own headers (host_clock.cc line 5) is
        # normal layering; only the time headers may fire there.
        self.assertNotIn(("src/serve/host_clock.cc", 5,
                          "serve-isolation"), self.findings)

    def test_obs_direct_mutation(self):
        self.assert_found("src/sim/cache.cc", 8, "obs-direct-mutation")

    def test_obs_listed_counter_is_clean(self):
        # ++stat.loadMiss (line 7) is in the fixture manifest: the
        # rule must fire only on the unlisted rogueCounter.
        for path, line, rule in self.findings:
            if rule == "obs-direct-mutation":
                self.assertEqual((path, line), ("src/sim/cache.cc", 8))

    def test_exact_finding_set(self):
        # No rule may fire anywhere a fixture did not plant it.
        self.assertEqual(sorted(self.findings), sorted([
            ("src/harness/uses_clock.cc", 8, "wall-clock"),
            ("src/harness/uses_clock.cc", 10, "wall-clock"),
            ("src/harness/export.cc", 9, "unordered-in-output"),
            ("src/sim/pointer_key.hh", 11, "pointer-order"),
            # ...which, being a std::map in sim/, is also a hot
            # container: two independent reasons to rewrite that line.
            ("src/sim/pointer_key.hh", 11, "hot-container"),
            ("src/sim/pointer_key.hh", 16, "pointer-order"),
            ("src/sim/rogue_thread.cc", 7, "raw-thread"),
            ("src/sim/rogue_thread.cc", 9, "raw-thread"),
            ("src/sim/threaded.cc", 8, "raw-thread"),
            ("src/sim/hot_map.cc", 6, "hot-container"),
            ("src/sim/hot_map.cc", 7, "hot-container"),
            ("src/prefetchers/hot_list.cc", 5, "hot-container"),
            ("src/common/using_ns.hh", 6, "using-namespace-header"),
            ("src/common/no_pragma.hh", 1, "pragma-once"),
            ("src/sim/cache.cc", 8, "obs-direct-mutation"),
            ("src/sim/uses_serve.cc", 3, "serve-isolation"),
            ("src/serve/host_clock.cc", 3, "serve-isolation"),
            ("src/serve/host_clock.cc", 4, "serve-isolation"),
        ]))


class CleanTree(unittest.TestCase):
    def test_no_findings(self):
        self.assertEqual(lint("clean"), [])


class Suppressions(unittest.TestCase):
    def test_justified_allows_are_honored(self):
        findings = lint("suppressed")
        self.assertNotIn(
            "src/harness/timed.cc", [path for path, _, _ in findings])
        self.assertNotIn(
            "src/serve/justified_time.cc",
            [path for path, _, _ in findings])
        self.assertNotIn(
            "src/sim/justified_map.cc",
            [path for path, _, _ in findings])

    def test_unjustified_allow_is_a_finding(self):
        self.assertIn(("src/harness/unjustified.cc", 9, "wall-clock"),
                      lint("suppressed"))

    def test_unknown_rule_id_is_a_finding(self):
        findings = lint("suppressed")
        self.assertIn(("src/harness/unjustified.cc", 10,
                       "bad-suppression"), findings)
        # ...and the typo'd allow suppresses nothing.
        self.assertIn(("src/harness/unjustified.cc", 11, "wall-clock"),
                      findings)


class CliExitCodes(unittest.TestCase):
    def run_main(self, tree):
        import contextlib
        import io
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = gaze_lint.main(
                ["--root", os.path.join(FIXTURES, tree), "src"])
        return rc, buf.getvalue()

    def test_clean_exits_zero(self):
        rc, out = self.run_main("clean")
        self.assertEqual(rc, 0)
        self.assertEqual(out, "")

    def test_violations_exit_one_with_file_line_output(self):
        rc, out = self.run_main("violations")
        self.assertEqual(rc, 1)
        self.assertIn(
            "src/common/using_ns.hh:6: [using-namespace-header]", out)


if __name__ == "__main__":
    unittest.main()

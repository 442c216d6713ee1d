#!/usr/bin/env python3
"""Fixture tests for tools/wlan_lint.py.

Each rule is proven live by a known-bad fixture that must fire and a
known-good / suppressed fixture that must pass.  Run directly or through
ctest (tools.wlan_lint, label: unit).
"""

import io
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
FIXTURES = os.path.join(REPO, "tests", "tools", "fixtures")
sys.path.insert(0, os.path.join(REPO, "tools"))

import wlan_lint  # noqa: E402


def run_lint(*argv):
    """Invoke wlan_lint.main; return (exit_code, [stdout lines])."""
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = wlan_lint.main(list(argv))
    lines = [l for l in out.getvalue().splitlines() if l.strip()]
    return code, lines


def fixture(name):
    return os.path.join(FIXTURES, name)


class WallClockRule(unittest.TestCase):
    def test_bad_fires_every_hazard(self):
        code, lines = run_lint("--root", REPO, "--rule", "wall-clock",
                               "--quiet", fixture("wall_clock_bad.cpp"))
        self.assertEqual(code, 1)
        hits = "\n".join(lines)
        self.assertIn("steady_clock", hits)
        self.assertIn("system_clock", hits)
        self.assertIn("random_device", hits)
        self.assertIn("rand()", hits)
        self.assertIn("time()", hits)
        # steady, system, random_device, srand, rand, time
        self.assertGreaterEqual(len(lines), 6)

    def test_good_and_suppressed_pass(self):
        code, lines = run_lint("--root", REPO, "--rule", "wall-clock",
                               "--quiet", fixture("wall_clock_good.cpp"))
        self.assertEqual(code, 0, lines)


class UnorderedIterationRule(unittest.TestCase):
    def test_bad_fires_range_for_and_iterator_walk(self):
        code, lines = run_lint("--root", REPO, "--rule",
                               "unordered-iteration", "--quiet",
                               fixture("unordered_iteration_bad.cpp"))
        self.assertEqual(code, 1)
        self.assertEqual(len(lines), 2, lines)
        self.assertIn("range-for", lines[0])
        self.assertIn("iterator walk", lines[1])

    def test_good_ordered_and_annotated_pass(self):
        code, lines = run_lint("--root", REPO, "--rule",
                               "unordered-iteration", "--quiet",
                               fixture("unordered_iteration_good.cpp"))
        self.assertEqual(code, 0, lines)


class RngSeedRule(unittest.TestCase):
    def test_bad_fires_literal_and_wall_seeds(self):
        code, lines = run_lint("--root", REPO, "--rule", "rng-seed",
                               "--quiet", fixture("rng_seed_bad.cpp"))
        self.assertEqual(code, 1)
        hits = "\n".join(lines)
        self.assertIn("'12345'", hits)
        self.assertIn("0xDEADBEEFULL", hits)
        self.assertIn("wall clock", hits)
        # literal, hex literal, literal-xor, wall-clock, init-list literal
        self.assertEqual(len(lines), 5, lines)

    def test_good_seed_derivations_pass(self):
        code, lines = run_lint("--root", REPO, "--rule", "rng-seed",
                               "--quiet", fixture("rng_seed_good.cpp"))
        self.assertEqual(code, 0, lines)


class LayerDagRule(unittest.TestCase):
    def run_dag(self, rel):
        root = fixture("dag_repo")
        return run_lint("--root", root, "--rule", "layer-dag", "--quiet",
                        os.path.join(root, rel))

    def test_util_must_not_see_obs(self):
        code, lines = self.run_dag("src/util/bad_sees_obs.hpp")
        self.assertEqual(code, 1)
        self.assertEqual(len(lines), 1, lines)
        self.assertIn('"obs/metrics.hpp"', lines[0])

    def test_phy_must_not_see_sim(self):
        code, lines = self.run_dag("src/phy/bad_sees_sim.hpp")
        self.assertEqual(code, 1)
        self.assertEqual(len(lines), 1, lines)
        self.assertIn('"sim/channel.hpp"', lines[0])

    def test_core_must_not_see_sim(self):
        code, lines = self.run_dag("src/core/bad_sees_sim.cpp")
        self.assertEqual(code, 1)
        self.assertEqual(len(lines), 1, lines)
        self.assertIn('"sim/network.hpp"', lines[0])

    def test_legal_edges_pass(self):
        code, lines = self.run_dag("src/sim/good_edges.cpp")
        self.assertEqual(code, 0, lines)

    def test_transitive_closure_matches_architecture_doc(self):
        # Spot-check the closure against docs/ARCHITECTURE.md invariants.
        allowed = wlan_lint.ALLOWED_INCLUDES
        self.assertNotIn("obs", allowed["util"])
        self.assertNotIn("sim", allowed["core"])
        self.assertNotIn("exp", allowed["sim"])
        self.assertIn("util", allowed["rate"])   # via phy -> obs -> util
        self.assertIn("obs", allowed["workload"])  # via sim
        for layer, deps in wlan_lint.DIRECT_DEPS.items():
            self.assertLessEqual(deps | {layer}, allowed[layer])


class UncheckedParseRule(unittest.TestCase):
    def test_bad_fires_bare_and_qualified_calls(self):
        code, lines = run_lint("--root", REPO, "--rule", "unchecked-parse",
                               "--quiet", fixture("unchecked_parse_bad.cpp"))
        self.assertEqual(code, 1)
        # atoi, std::atof, std::atol, ::atoll — one finding each
        self.assertEqual(len(lines), 4, lines)
        for name, line in zip(("atoi", "atof", "atol", "atoll"), lines):
            self.assertIn(f"unchecked-parse: {name}()", line)

    def test_good_look_alikes_and_suppressed_pass(self):
        code, lines = run_lint("--root", REPO, "--rule", "unchecked-parse",
                               "--quiet", fixture("unchecked_parse_good.cpp"))
        self.assertEqual(code, 0, lines)

    def test_suppression_is_what_silences_the_good_fixture(self):
        with open(fixture("unchecked_parse_good.cpp"), encoding="utf-8") as f:
            text = f.read()
        self.assertIn("wlan-lint: allow(unchecked-parse)", text)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "unsuppressed.cpp")
            with open(path, "w", encoding="utf-8") as f:
                f.write(text.replace("wlan-lint: allow(unchecked-parse)",
                                     "formerly suppressed"))
            code, lines = run_lint("--root", tmp, "--rule",
                                   "unchecked-parse", "--quiet", path)
        self.assertEqual(code, 1)
        self.assertEqual(len(lines), 1, lines)
        self.assertIn("atoi()", lines[0])


class SuppressionSyntax(unittest.TestCase):
    def test_reasonless_and_unknown_rule_are_findings(self):
        code, lines = run_lint("--root", REPO, "--quiet",
                               fixture("suppression_bad.cpp"))
        self.assertEqual(code, 1)
        hits = "\n".join(lines)
        self.assertIn("without a reason", hits)
        self.assertIn("unknown rule", hits)
        # The reasonless suppression must not mask the steady_clock read.
        self.assertIn("steady_clock", hits)


class RepoIsClean(unittest.TestCase):
    def test_default_scan_is_clean(self):
        # The committed tree must stay at zero unsuppressed findings; this
        # is the same gate scripts/check.sh and CI run.
        code, lines = run_lint("--root", REPO, "--quiet")
        self.assertEqual(code, 0, "\n".join(lines))


if __name__ == "__main__":
    unittest.main(verbosity=2)

"""Self-tests of the benchmark harness (not of roundlab).

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Checks self time on a synthetic
span tree, that a wrong answer or a crash is counted as a failure without
stopping the pass, that hooks whose target is gone are tolerated, and
how the host-speed sampler scales time.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class SpanTreeTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0])
        t = tracing.Tracer(clock=lambda: next(ticks))
        leaf = t.wrap("leaf", lambda: None)
        mid = t.wrap("mid", lambda: leaf())

        def body():
            leaf()      # 1 .. 3
            mid()       # 4 .. 7, with a leaf at 5 .. 6
        t.wrap("root", body)()   # 0 .. 10

        own = t.self_times()
        self.assertEqual(own["root"], 10.0 - 2.0 - 3.0)
        self.assertEqual(own["mid"], 3.0 - 1.0)
        self.assertEqual(own["leaf"], 2.0 + 1.0)
        self.assertEqual(t.total("leaf"), 3.0)
        self.assertEqual(t.calls("leaf"), 2)
        self.assertEqual(t.count_under("leaf", "mid"), 1)
        self.assertEqual(t.count_under("leaf", "root"), 2)

    def test_span_closes_when_the_call_raises(self):
        t = tracing.Tracer()

        def boom():
            raise ValueError("x")
        with self.assertRaises(ValueError):
            t.wrap("boom", boom)()
        self.assertIsNotNone(t.spans[0][3])
        self.assertEqual(t._stack, [])


class SpeedSamplerTest(unittest.TestCase):
    def test_stretches_take_the_speed_of_the_bursts_beside_them(self):
        ref = speed.REF_BURST_S
        s = speed.SpeedSampler()
        s.samples = [(1.0, 2.0), (4.0, 4.5)]      # bursts of 1 and 0.5
        raw, scaled = s.measure(0.0, 6.0)
        self.assertAlmostEqual(raw, 1.0 + 2.0 + 1.5)
        self.assertAlmostEqual(scaled, ref * (1.0 / 1.0 + 2.0 / 0.75
                                              + 1.5 / 0.5))
        raw, scaled = s.measure(1.5, 3.0)          # clipped to 2 .. 3
        self.assertAlmostEqual(raw, 1.0)
        self.assertAlmostEqual(scaled, ref / 0.75)

    def test_timer_samples_and_restores_the_handler(self):
        import signal
        import time
        before = signal.getsignal(signal.SIGALRM)
        s = speed.SpeedSampler()
        s.start()
        end = time.monotonic() + 4 * speed.PERIOD_S
        while time.monotonic() < end:
            pass
        s.stop()
        self.assertGreaterEqual(len(s.samples), 4)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)


class HookTest(unittest.TestCase):
    def test_missing_targets_are_tolerated(self):
        t = tracing.Tracer()
        t.install([
            ("gone.module", "roundlab.no_such_module", "f", None),
            ("gone.class", "roundlab.timed", "NoSuchClass.method", None),
            ("gone.func", "roundlab.mcf", "no_such_function", None),
        ])
        self.assertEqual(t.missing, ["gone.module", "gone.class",
                                     "gone.func"])
        metrics = tracing.layer_metrics(t)
        self.assertEqual(set(metrics), set(tracing.UNITS))
        self.assertEqual(metrics["flownet.max_flow.calls"], 0)
        self.assertEqual(metrics["mcf.lp_per_tau_mcf"], 0.0)

    def test_install_patches_every_binding_and_uninstall_restores(self):
        from roundlab import cli, mcf, protocols
        original = mcf.tau_mcf
        t = tracing.Tracer()
        t.install([h for h in tracing.HOOKS if h[0] == "mcf.tau_mcf"])
        try:
            self.assertIs(cli.tau_mcf, mcf.tau_mcf)
            self.assertIs(protocols.tau_mcf, mcf.tau_mcf)
            self.assertIs(mcf.tau_mcf.__wrapped__, original)
        finally:
            t.uninstall()
        self.assertIs(mcf.tau_mcf, original)
        self.assertIs(cli.tau_mcf, original)


class FailureCountTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.ctx = workloads.Context("route", 0, Path(self.tmp.name))
        workloads.setup(self.ctx)

    def tearDown(self):
        self.tmp.cleanup()

    def test_wrong_answer_and_crash_are_counted(self):
        from roundlab import cli
        path300 = workloads.EXPERIMENTS["route"][0]
        records, failures = workloads.run_experiments(self.ctx, [path300])
        self.assertEqual(failures, [])

        real = cli.tau_route
        cli.tau_route = lambda *args: real(*args) + 1   # injected defect
        try:
            records, failures = workloads.run_experiments(
                self.ctx, [path300, ("crash", lambda ctx: 1 / 0), path300])
        finally:
            cli.tau_route = real
        self.assertEqual(len(failures), 3)
        self.assertIn("wrong answer: tau_route 303 != 302", failures[0])
        self.assertIn("ZeroDivisionError", failures[1])

    def test_fraction_strings_and_ints_both_read(self):
        self.assertEqual(workloads.as_number("2/1"), 2)
        self.assertEqual(workloads.as_number(2), 2)
        self.assertEqual(workloads.as_number("4116/5") * 5, 4116)


if __name__ == "__main__":
    unittest.main()

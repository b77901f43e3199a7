"""Self-tests of the benchmark runner (`run.py`).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import re
import tempfile
import unittest
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
LIMITS = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def declared(trace):
    return [m["name"] for m in run.declared_metrics(SPEC, trace)]


def samples_reported_by(workload, trace):
    return {n: [1.0, 2.0, 3.0] for n in declared(trace) if run.reported(workload, n)}


class Manifest(unittest.TestCase):
    def write(self, text):
        f = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
        f.write(text)
        f.close()
        self.addCleanup(Path(f.name).unlink)
        return f.name

    def test_corrupted_value_is_a_failed_check_not_a_crash(self):
        path = self.write(json.dumps({"seed": 1, "workloads": {"ops-loop": {"router.deferred": -1}}}))
        tally = run.Tally()
        seed, expected = run.load_manifest(path, "ops-loop", tally)
        self.assertEqual(seed, 1)
        result = {"observed": {"router.deferred": 84482}, "checks": {"a": True}, "guards": {}}
        run.check_pass(result, expected, tally)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertEqual(tally.failures, ["manifest router.deferred"])

    def test_missing_observed_key_is_a_failed_check(self):
        tally = run.Tally()
        run.check_pass({"observed": {}, "checks": {}, "guards": {}}, {"sim.events": 5}, tally)
        self.assertEqual(tally.failed, 1)

    def test_unreadable_or_misshapen_manifest_is_one_failed_check(self):
        for text in ["{not json", json.dumps({"seed": "1", "workloads": {"figures": {}}}),
                     json.dumps({"seed": 1, "workloads": {"figures": []}}), json.dumps({})]:
            tally = run.Tally()
            self.assertEqual(run.load_manifest(self.write(text), "figures", tally), (None, None))
            self.assertEqual((tally.attempted, tally.failed), (1, 1), text)

    def test_committed_manifest_covers_every_workload(self):
        tally = run.Tally()
        for workload in run.WORKLOADS:
            seed, expected = run.load_manifest(ROOT / run.MANIFEST, workload, tally)
            self.assertEqual(seed, run.DEFAULT_SEED)
            self.assertTrue(expected, workload)
        self.assertEqual(tally.failed, 0)

    def test_failed_guard_refuses_the_workload(self):
        with self.assertRaises(run.Refused):
            run.check_pass({"guards": {"router.defers_and_rejects": False}}, None, run.Tally())


class Metrics(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        names = [w["name"] for w in SPEC["workloads"]] + declared(0) + declared(1)
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
            self.assertRegex(name, LIMITS)
        for m in run.declared_metrics(SPEC, 0) + run.declared_metrics(SPEC, 1):
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in run.declared_metrics(SPEC, 0):
            self.assertLessEqual(m["bound"], 0.25)

    def test_workloads_match_the_runner(self):
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]), run.WORKLOADS)

    def test_every_declared_name_is_printed_by_every_workload(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                tally = run.Tally()
                samples = {n: [1.0] for n in ("setup_s", "wall_s", "peak_rss_mib")}
                samples.update(samples_reported_by(workload, trace))
                metrics, stats = run.summarise(SPEC, workload, trace, samples, tally)
                self.assertEqual(list(metrics), declared(trace), (workload, trace))
                self.assertEqual(tally.failed, 0, (workload, trace, tally.failures))
                for m in metrics.values():
                    self.assertIsInstance(m["value"], float)

    def test_a_reported_metric_that_goes_missing_is_a_failed_check(self):
        tally = run.Tally()
        samples = samples_reported_by("ops-loop", 1)
        del samples["sim.record_s"]
        metrics, _ = run.summarise(SPEC, "ops-loop", 1, samples, tally)
        self.assertEqual(metrics["sim.record_s"]["value"], 0.0)
        self.assertEqual(tally.failures, ["metric sim.record_s reported"])

    def test_every_per_layer_metric_is_reported_by_some_workload(self):
        for name in declared(1):
            self.assertTrue(any(run.reported(w, name) for w in run.WORKLOADS), name)

    def test_reported_names_are_declared(self):
        names = set(declared(1))
        for workload, entries in run.REPORTED.items():
            for entry in entries:
                if entry.endswith("."):
                    self.assertTrue(any(n.startswith(entry) for n in names), entry)
                else:
                    self.assertIn(entry, names, workload)

    def test_quartiles_follow_statistics_quantiles(self):
        self.assertEqual(run.quartiles([2.0]), (2.0, 2.0, 2.0))
        self.assertEqual(run.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])[0], 3.0)


if __name__ == "__main__":
    unittest.main()

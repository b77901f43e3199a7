#!/usr/bin/env python3
"""Benchmark runner for the space-udc workspace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-manifest

Run from the repository root. It builds the `sudc-perfbench` binary (a
package of its own under `perfbench/`, into `$CARGO_TARGET_DIR`, default
`.bench_build`), then runs one fresh process per pass of the workload until
`--seconds` of passes have run, so each pass pays its own process start
and cold caches. It checks every pass's outputs, prints each metric's
median with its quartiles, writes the run's metadata (and, traced, its
spans) under `.bench_out/`, and prints as its last line one JSON object:
`correct`, `attempted`, `failed`, and `metrics` -- the end-to-end metrics
of `BENCHMARK.json` with `--trace 0`, its per-layer metrics with
`--trace 1`. See `perfbench/README.md`.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("figures", "ops-loop")
PACKAGE = Path("perfbench")
MANIFEST = PACKAGE / "manifest.json"
OUT_DIR = Path(".bench_out")
# Set-up is a few milliseconds, so several set-up-only processes run
# beside the passes and the run reports the median of all of them.
SETUP_PROBES = 25
# Passes a run makes even when they overrun `--seconds`.
MIN_PASSES = 3
# What a traced run's extra processes (the 1-thread pass, and on `figures`
# the accelerator part) cost, in untraced pass times; the traced run
# reserves it out of `--seconds`.
EXTRAS = {"figures": 2.5, "ops-loop": 1.5}
# A run must end within this many seconds after its build.
DEADLINE_S = 170.0
# The per-layer metrics each workload reports (a name, or a prefix ending
# in "."). A declared per-layer metric outside its workload's list is a
# layer the workload does not call and reads 0; one inside it that no
# pass reported is a failed check.
REPORTED = {
    "figures": (
        "figures.", "accel.", "bench.self_s", "par.threads", "par.speedup.figures",
        "perfbench.self_s", "trace.", "failed_frac",
    ),
    "ops-loop": (
        "chaos.", "health.", "sim.", "sim_events_per_s", "router.", "route_decisions_per_s",
        "bus.", "par.threads", "par.speedup.router", "par.speedup.chaos", "perfbench.self_s",
        "trace.", "failed_frac",
    ),
}
# The seed the expected-output manifest was recorded at.
DEFAULT_SEED = 1


class Refused(Exception):
    """The workload cannot be measured as asked (a guard failed)."""


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seed >= 2**64:
        p.error("--seed must be a whole number below 2**64")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def reported(workload, name):
    return any(name == p or (p.endswith(".") and name.startswith(p)) for p in REPORTED[workload])


def quartiles(values):
    """Median, first and third quartile, as `statistics.quantiles` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


# --- host and source metadata ----------------------------------------------


def read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def host_info():
    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = read(index / "size")
    return {
        "cpu_model": cpu or platform.processor() or "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "kernel": platform.release(),
        "python": platform.python_version(),
    }


def source_info():
    """The git commit when there is one, and always a digest of the
    sources the benchmark builds (a checkout need not be a git tree)."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    files = [Path("Cargo.toml"), Path("Cargo.lock")]
    for root in (Path("crates"), PACKAGE / "src"):
        files += sorted(p for p in root.rglob("*") if p.is_file() and "target" not in p.parts)
    for f in files:
        if f.is_file():
            digest.update(str(f).encode() + b"\0" + f.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


# --- building and running the worker --------------------------------------


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(PACKAGE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.SubprocessError) as e:
        fail(3, f"cannot build the benchmark: {e}")
    if done.returncode != 0:
        fail(3, "building the benchmark failed")
    return Path(env["CARGO_TARGET_DIR"]) / "release" / "sudc-perfbench"


class Worker:
    def __init__(self, binary, workload, seed, deadline):
        self.binary, self.workload, self.seed = binary, workload, seed
        self.deadline = deadline
        # The workloads run with no `SUDC_*` override in effect.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("SUDC_")}

    def run(self, *extra):
        cmd = [str(self.binary), "--workload", self.workload, "--seed", str(self.seed), *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            fail(5, "out of time before a pass could start")
        try:
            done = subprocess.run(
                cmd, env=self.env, stdout=subprocess.PIPE, stderr=sys.stderr,
                text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            fail(5, f"a pass overran the {DEADLINE_S:.0f} s limit: {' '.join(cmd)}")
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            fail(5, f"worker failed (exit {done.returncode}): {' '.join(cmd)}")
        return json.loads(lines[-1])


# --- checks -----------------------------------------------------------------


class Tally:
    """Counts correctness checks; a failure is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    @property
    def failed(self):
        return len(self.failures)


def load_manifest(path, workload, tally):
    """The expected outputs for `workload`, or None. A manifest that cannot
    be read or has the wrong shape is one failed check."""
    try:
        doc = json.loads(Path(path).read_text())
        seed = doc["seed"]
        expected = doc["workloads"][workload]
        if not isinstance(seed, int) or not isinstance(expected, dict):
            raise TypeError("seed must be an integer and each workload an object")
    except (OSError, ValueError, KeyError, TypeError) as e:
        tally.check(f"manifest readable ({e})", False)
        return None, None
    return seed, expected


def check_pass(result, expected, tally):
    """Counts one pass's checks and manifest comparisons; raises Refused
    on a failed guard."""
    for name, ok in result.get("guards", {}).items():
        if ok is not True:
            raise Refused(f"mechanism guard failed: {name}")
    for name, ok in result.get("checks", {}).items():
        tally.check(name, ok is True)
    if expected is not None:
        observed = result.get("observed", {})
        for key, want in expected.items():
            tally.check(f"manifest {key}", key in observed and observed[key] == want)


# --- the two kinds of run ---------------------------------------------------


def passes(worker, seconds, tally, expected):
    """Runs fresh-process passes until `seconds` of them have run."""
    results = []
    start = time.monotonic()
    while True:
        r = worker.run()
        check_pass(r, expected, tally)
        results.append(r)
        elapsed = time.monotonic() - start
        typical = elapsed / len(results)
        if len(results) >= MIN_PASSES and elapsed + typical > seconds:
            return results


def setup_times(worker, results):
    probes = [worker.run("--part", "setup")["setup_s"] for _ in range(SETUP_PROBES)]
    return probes + [r["setup_s"] for r in results]


def end_to_end(worker, seconds, tally, expected):
    results = passes(worker, seconds, tally, expected)
    samples = {
        "setup_s": setup_times(worker, results),
        "wall_s": [r["wall_s"] for r in results],
        "peak_rss_mib": [r["peak_rss_mib"] for r in results],
    }
    return samples, results, []


def per_layer(worker, seconds, tally, expected, run_tag):
    """Alternates untraced and traced passes (at least two of each); then
    runs the 1-thread pass and, on `figures`, the accelerator part, each in
    a process of its own."""
    spans_dir = OUT_DIR / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    untraced, traced, span_files = [], [], []
    start = time.monotonic()
    while True:
        k = len(traced)
        untraced.append(worker.run())
        check_pass(untraced[-1], expected, tally)
        span_file = spans_dir / f"{run_tag}-pass{k}.json"
        traced.append(worker.run("--spans", str(span_file), "--run-id", f"{run_tag}-pass{k}"))
        check_pass(traced[-1], expected, tally)
        span_files.append(str(span_file))
        elapsed = time.monotonic() - start
        reserve = EXTRAS[worker.workload] * quartiles([r["wall_s"] for r in untraced])[0]
        if len(traced) >= 2 and elapsed * (len(traced) + 1) / len(traced) + reserve > seconds:
            break

    samples = {}
    for r in traced:
        for name, value in r["metrics"].items():
            samples.setdefault(name, []).append(value)
    median = lambda xs: quartiles(xs)[0]
    wall_traced = median([r["wall_s"] for r in traced])
    wall_untraced = median([r["wall_s"] for r in untraced])
    samples["trace.overhead_s"] = [wall_traced - wall_untraced]
    samples["par.threads"] = [traced[0]["threads"]]

    serial = worker.run("--threads", "1")
    check_pass(serial, expected, tally)
    tally.check("outputs equal at 1 and nproc threads", serial["observed"] == untraced[0]["observed"])
    ratio = lambda name: serial["metrics"][name] / median(samples[name])
    if worker.workload == "figures":
        samples["par.speedup.figures"] = [serial["wall_s"] / wall_untraced]
        span_file = spans_dir / f"{run_tag}-accel.json"
        accel = worker.run("--part", "accel", "--spans", str(span_file), "--run-id", f"{run_tag}-accel")
        check_pass(accel, None, tally)
        span_files.append(str(span_file))
        for name, value in accel["metrics"].items():
            if name.startswith("accel."):
                samples.setdefault(name, []).append(value)
    elif worker.workload == "ops-loop":
        samples["par.speedup.router"] = [ratio("router.route_s")]
        samples["par.speedup.chaos"] = [ratio("chaos.grid_s")]
    return samples, untraced + traced, span_files


# --- output -------------------------------------------------------------------


def declared_metrics(spec, trace):
    return spec["per_layer" if trace else "end_to_end"]


def summarise(spec, workload, trace, samples, tally):
    """Median per declared metric. A metric of a layer the workload does not
    call is 0; one of a layer it does call that no pass reported is a
    failed check (and reads 0)."""
    metrics, stats = {}, {}
    for m in declared_metrics(spec, trace):
        name, unit = m["name"], m["unit"]
        values = samples.get(name)
        if values is None and name == "failed_frac":
            values = [tally.failed / max(tally.attempted, 1)]
        if values is None:
            if reported(workload, name):
                tally.check(f"metric {name} reported", False)
            values = [0.0]
        med, q1, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        stats[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": unit}
    return metrics, stats


def run(argv):
    args = parse_args(argv)
    missing = [p for p in ("BENCHMARK.json", "Cargo.toml", "crates", "results", str(PACKAGE / "Cargo.toml"))
               if not Path(p).exists()]
    if missing:
        fail(2, f"run from the repository root; missing here: {', '.join(missing)}")
    spec = json.loads(Path("BENCHMARK.json").read_text())

    binary = build()
    deadline = time.monotonic() + DEADLINE_S
    worker = Worker(binary, args.workload, args.seed, deadline)
    tally = Tally()
    manifest_seed, expected = load_manifest(MANIFEST, args.workload, tally)
    if manifest_seed != args.seed:
        expected = None  # other seeds: only the seed-independent checks apply
    run_tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        if args.trace:
            samples, results, span_files = per_layer(worker, args.seconds, tally, expected, run_tag)
        else:
            samples, results, span_files = end_to_end(worker, args.seconds, tally, expected)
    except Refused as e:
        fail(4, f"{args.workload} refused, not timed: {e}")

    metrics, stats = summarise(spec, args.workload, args.trace, samples, tally)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "threads": results[0]["threads"],
        "passes": len(results),
        "manifest_applied": expected is not None,
        "host": host_info(),
        "source": source_info(),
        "checks": {"attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures},
        "metrics": stats,
        "spans": span_files,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{run_tag}.json").write_text(json.dumps(meta, indent=2) + "\n")

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {len(results)} passes "
          f"on {meta['threads']} threads, {meta['host']['cpu_model']}")
    for name, s in stats.items():
        print(f"#   {name:34} {s['median']:.6g} {s['unit']}  [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']}]")
    for name in tally.failures:
        print(f"#   FAILED {name}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))


def record_manifest():
    """Rewrites the manifest from one pass of each workload at the default
    seed; refuses when any check or guard of those passes fails."""
    binary = build()
    doc = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        worker = Worker(binary, workload, DEFAULT_SEED, time.monotonic() + DEADLINE_S)
        result, tally = worker.run(), Tally()
        try:
            check_pass(result, None, tally)
        except Refused as e:
            fail(4, f"{workload}: {e}")
        if tally.failed:
            fail(6, f"{workload}: checks failed, manifest not written: {tally.failures}")
        doc["workloads"][workload] = result["observed"]
    MANIFEST.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record-manifest"]:
        record_manifest()
    else:
        run(sys.argv[1:])

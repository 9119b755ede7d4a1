#!/usr/bin/env python3
"""Benchmark of the RISSP reproduction: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the released exhibit binaries and the `perfbench` binary from
source, then repeats the workload's fixed unit of work in fresh processes
(cold program cache and worker pool each time) until `--seconds` have
passed, timing a fixed calibration kernel between repetitions to rescale
their times to a reference host speed. The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, the per-layer metrics with `--trace 1`.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXHIBITS = ["fig5", "fig6_7_8_9", "fig10", "fig12", "table2", "table3"]
WORKLOADS = ["paper_pipeline", "mutation_campaign", "fuzz_campaign", "verify_service"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
MIN_REPS = 3
SETUP_REPS = 11
# Exact counts of the traced walks that no perf change may move; the
# others (settles, ops per settle, cache hits and misses, compiles) must
# only repeat for the same binaries.
TRACE_INVARIANT = {"cycles.scalar", "cycles.batched", "steps.batched", "rissp.generates",
                   "mutants", "observable", "killed", "verdicts_fnv", "emu.retired",
                   "reads", "updates"}
CHILD_TIMEOUT_S = 150
# The calibration kernel's time at the reference host speed: a round
# figure within its range on the 2-vCPU Xeon host the benchmark was
# defined on. `work_s` and `setup_s` are host seconds rescaled to that
# speed (see src/calib.rs).
CAL_REF_S = 0.05


# Which end-to-end metric, on which workload, each per-layer metric
# should move (longest matching prefix wins).
MOVES = {
    "exhibit.": "work_s on paper_pipeline",
    "exhibit.fig6_7_8_9_s": "work_s on paper_pipeline (headline exhibit)",
    "service.": "work_s on verify_service",
    "hwlib.build_full_ms": "setup_s on every workload",
    "hwlib.mutants_of_ms": "work_s on mutation_campaign",
    "hwlib.instrument_ms": "work_s on mutation_campaign",
    "hwlib.verify_ms": "work_s on verify_service (reads)",
    "xcc.": "work_s on fuzz_campaign; little on paper_pipeline",
    "profile.": "little (work_s on paper_pipeline, fuzz_campaign)",
    "rissp.": "work_s on paper_pipeline and fuzz_campaign",
    "processor.": "work_s on paper_pipeline and fuzz_campaign",
    "sim.settle_us.interp.l1": "work_s on paper_pipeline",
    "sim.settle_us.interp.l64": "work_s on fuzz_campaign",
    "sim.settle_us.interp.l256": "work_s on mutation_campaign",
    "sim.settle_us.jit": "nothing today (Auto never picks the JIT)",
    "sim.ops_per_settle.pipeline": "work_s on paper_pipeline",
    "sim.ops_per_settle.fuzz": "work_s on fuzz_campaign",
    "sim.ops_per_settle.mutation": "work_s on mutation_campaign",
    "jit.": "nothing today (Auto never picks the JIT)",
    "netlist.compile_us.mutation": "work_s on mutation_campaign",
    "netlist.compiles.mutation": "work_s on mutation_campaign",
    "netlist.compile_us.service": "work_s on verify_service (updates)",
    "netlist.compiles.service": "work_s on verify_service (updates)",
    "cache.hash_us": "work_s on verify_service (reads)",
    "cache.hit_us": "work_s on verify_service (reads)",
    "cache.": "work_s of the named workload (misses cost a compile)",
    "pool.": "work_s on mutation_campaign",
    "emu.": "work_s on fuzz_campaign",
    "flexic.": "little (work_s on paper_pipeline)",
    "serv.": "little (work_s on paper_pipeline)",
    "trace.": "diagnostic",
}


def moves(name):
    return MOVES[max((p for p in MOVES if name.startswith(p)), key=len, default="trace.")]


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


class Runner:
    def __init__(self, target):
        self.target = target
        self.env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    def build(self):
        cargo = ["cargo", "build", "--release", "--offline", "-q"]
        steps = [
            cargo + ["--manifest-path", str(HERE / "Cargo.toml")],
            cargo + ["-p", "bench"] + [a for b in EXHIBITS for a in ("--bin", b)],
        ]
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=sys.stderr).returncode:
                die("build failed: " + " ".join(cmd))

    def child(self, argv):
        """Runs one process to completion under `perfbench exec`, which
        measures it: (stdout bytes, exit code, wall s, peak rss MB)."""
        launcher = [str(self.target / "release" / "perfbench"), "exec"]
        p = subprocess.Popen(launcher + [str(a) for a in argv], cwd=ROOT, env=self.env,
                             stdout=subprocess.PIPE, start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, kill_group, (p.pid,))
        timer.start()
        out = p.stdout.read()
        p.wait()
        timer.cancel()
        p.stdout.close()
        lines = out.splitlines(keepends=True)
        if p.returncode != 0 or not lines:
            return out, p.returncode or 1, float("inf"), float("nan")
        info = json.loads(lines[-1])
        rss = info["peak_rss_mb"]
        return b"".join(lines[:-1]), info["code"], info["wall_s"], float("nan") if rss is None else rss

    def perfbench(self, *args):
        out, code, _, rss = self.child([self.target / "release" / "perfbench", *args])
        if code != 0:
            return None, rss
        return json.loads(out.decode().strip().splitlines()[-1]), rss

    def calibrate(self):
        res, _ = self.perfbench("calibrate")
        if res is None:
            die("calibration kernel failed")
        return res["cal_s"]


def kill_group(pid):
    """Kills a timed-out child and the program it launched."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def invariant(key, record):
    """The part of a run's exact counts that no perf change may move."""
    if key == "trace":
        return {w: {k: v for k, v in c.items() if k in TRACE_INVARIANT}
                for w, c in record.items()}
    return record["counts"]


class Counts:
    """Exact work counts of one seed. All of them must repeat across the
    repetitions of a run and across runs of the same binaries (stored
    under the target directory, keyed by the binaries' hash). The
    invariant part must also equal golden/counts.json where that file
    has the seed, whatever the binaries."""

    def __init__(self, key, seed, store):
        self.key = key
        golden = json.loads((HERE / "golden" / "counts.json").read_text())
        self.golden = golden.get(str(seed), {}).get(key)
        self.path = store / f"{key}-seed{seed}.json"
        self.first = None
        self.ok = True

    def fail(self, msg):
        print(f"perfbench: {msg}", file=sys.stderr)
        self.ok = False

    def check(self, counts):
        if self.first is None:
            self.first = counts
        elif counts != self.first:
            self.fail(f"counts differ between repetitions: {counts} != {self.first}")

    def settle(self):
        if self.first is None:
            return
        if self.golden is not None and invariant(self.key, self.first) != self.golden:
            self.fail(f"counts differ from golden/counts.json: "
                      f"{invariant(self.key, self.first)} != {self.golden}")
        if self.path.exists():
            stored = json.loads(self.path.read_text())
            if stored != self.first:
                self.fail(f"counts differ from an earlier run of the same binaries: "
                          f"{self.first} != {stored}")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(self.first, sort_keys=True))


def trimmed_mean(values, cut=0.1):
    """Mean of the values left after dropping the highest and lowest
    `cut` of them. Load on a shared host shifts whole stretches of
    repetitions between speed levels rather than adding rare outliers,
    and a median jumps between those levels where a mean moves in
    proportion."""
    s = sorted(values)
    k = int(len(s) * cut)
    return statistics.fmean(s[k:len(s) - k])


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(round(q * len(s) + 0.5)) - 1))]


def run_untraced(r, workload, seed, seconds, counts, report):
    """Repeats the workload; returns (metrics, attempted, failed)."""
    golden = {b: (HERE / "golden" / f"{b}.txt").read_bytes() for b in EXHIBITS}
    setups, walls, host_walls, rsses, cals = [], [], [], [], []
    attempted = failed = 0
    reads, updates = [], []
    last = None  # a repetition's result; the counts repeat exactly

    def rescale():
        """Reference speed over host speed for the span just timed: the
        calibration kernel's times before and after it, averaged."""
        cals.append(r.calibrate())
        return CAL_REF_S / statistics.fmean(cals[-2:])

    if workload == "paper_pipeline":
        cals.append(r.calibrate())
        for _ in range(SETUP_REPS):
            res, *_ = r.perfbench("pipeline-setup", "--seed", seed)
            if res is None:
                die("pipeline set-up failed")
            setups.append(res["setup_s"] * rescale())
    if workload == "mutation_campaign":
        reference, _ = r.perfbench("mutation-reference", "--seed", seed)
        if reference is None:
            die("scalar mutation reference failed")
        attempted += reference["blocks"]
        failed += reference["mismatches"]
        if reference["mismatches"]:
            print(f"perfbench: {reference['mismatches']} blocks' lane-parallel verdicts differ "
                  f"from the scalar loop's", file=sys.stderr)
    if workload == "fuzz_campaign":
        res, _ = r.perfbench("fuzz-plan", "--seed", seed)
        if res is None:
            die("fuzz plan failed")
        bases = res["bases"]
    order = list(EXHIBITS)
    rng = random.Random(seed)
    cals.append(r.calibrate())
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_REPS or time.perf_counter() < deadline:
        if workload == "paper_pipeline":
            rng.shuffle(order)
            wall = scaled = rss = 0.0
            digest = {}
            for b in order:
                out, code, w, m = r.child([r.target / "release" / b])
                # Rescaled per exhibit: a repetition lasts seconds, and
                # the host's speed moves within that.
                wall, scaled, rss = wall + w, scaled + w * rescale(), max(rss, m)
                attempted += 1
                if code != 0 or out != golden[b]:
                    print(f"perfbench: {b} output differs from golden/{b}.txt", file=sys.stderr)
                    failed += 1
                digest[b] = len(out.splitlines())
            counts.check({"counts": digest})
            host_walls.append(wall)
            walls.append(scaled)
            rsses.append(rss)
            continue
        if workload == "mutation_campaign":
            res, rss = r.perfbench("mutation", "--seed", seed)
        elif workload == "fuzz_campaign":
            res, rss = r.perfbench("fuzz", "--bases", bases)
        else:
            res, rss = r.perfbench("service", "--seed", seed)
        scale = rescale()
        if res is None:
            attempted += 1
            failed += 1
            walls.append(float("inf"))
            continue
        attempted += res["attempted"]
        failed += res["failed"]
        if workload == "mutation_campaign":
            attempted += 1
            if res["reference"] != reference["probe"]:
                print(f"perfbench: lane-parallel verdicts {res['reference']} differ from the "
                      f"scalar loop's {reference['probe']}", file=sys.stderr)
                failed += 1
        counts.check({"counts": res["counts"], "cache": res["cache"]})
        setups.append(res["setup_s"] * scale)
        host_walls.append(res["run_s"])
        walls.append(res["run_s"] * scale)
        rsses.append(rss)
        last = res
        reads += res.get("read_us", [])
        updates += res.get("update_us", [])

    if not setups:
        setups = [float("nan")]
    metrics = {
        "setup_s": trimmed_mean(setups),
        "work_s": trimmed_mean(walls),
        "peak_rss_mb": statistics.median(rsses) if rsses else float("nan"),
        "ok_share": (attempted - failed) / max(attempted, 1),
    }
    # The workload's own figures, by their usual names.
    wall = metrics["work_s"]
    if workload == "paper_pipeline":
        report.append(("pipeline_s", wall, "s"))
    elif workload == "mutation_campaign" and last:
        report.append(("mutants_per_s", last["counts"]["mutants"] / wall, "1/s"))
    elif workload == "fuzz_campaign" and last:
        report.append(("fuzz_programs_per_s", last["counts"]["programs"] / wall, "1/s"))
    elif workload == "verify_service" and last and reads and updates:
        report += [
            ("service_ops_per_s", last["attempted"] / wall, "1/s"),
            ("service_read_p50_ms", percentile(reads, 0.50) / 1e3, "ms"),
            ("service_read_p99_ms", percentile(reads, 0.99) / 1e3, "ms"),
            ("service_update_p50_ms", percentile(updates, 0.50) / 1e3, "ms"),
            ("service_update_p99_ms", percentile(updates, 0.99) / 1e3, "ms"),
            ("service_read_samples", len(reads), "count"),
            ("service_update_samples", len(updates), "count"),
        ]
    q = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    report += [("work_s_q1", q[0], "s"), ("work_s_q3", q[2], "s"),
               ("host_work_s", trimmed_mean(host_walls) if host_walls else float("nan"), "s"),
               ("calibration_s", statistics.median(cals), "s"),
               ("setup_s", metrics["setup_s"], "s"), ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
               ("failed_share", failed / max(attempted, 1), "ratio"),
               ("repetitions", len(walls), "count")]
    return metrics, attempted, failed


def run_traced(r, seed, counts):
    """One traced re-walk of every workload plus the released exhibits
    and a service run, timed untraced."""
    metrics = {}
    attempted = failed = 0
    golden = {b: (HERE / "golden" / f"{b}.txt").read_bytes() for b in EXHIBITS}
    for b in EXHIBITS:
        out, code, wall, _ = r.child([r.target / "release" / b])
        metrics[f"exhibit.{b}_s"] = wall
        attempted += 1
        failed += int(code != 0 or out != golden[b])

    res, *_ = r.perfbench("service", "--seed", seed)
    if res is None:
        return metrics, attempted + 1, failed + 1
    attempted += res["attempted"]
    failed += res["failed"]
    reads, updates = res["read_us"], res["update_us"]
    metrics.update({
        "service.read_p50_ms": percentile(reads, 0.50) / 1e3,
        "service.read_p99_ms": percentile(reads, 0.99) / 1e3,
        "service.update_p50_ms": percentile(updates, 0.50) / 1e3,
        "service.update_p99_ms": percentile(updates, 0.99) / 1e3,
    })

    spans = r.target / "perfbench" / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    res, *_ = r.perfbench("trace", "--seed", seed, "--spans", spans, "--golden", HERE / "golden")
    if res is None:
        return metrics, attempted + 1, failed + 1
    attempted += res["attempted"]
    failed += res["failed"]
    counts.check(res["counts"])
    metrics.update(res["metrics"])
    print(f"spans written to {spans}", file=sys.stderr)
    return metrics, attempted, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=26)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("GATE_SIM_"))
    if knobs:
        die(f"refusing to run with {', '.join(knobs)} set: each changes what runs", 2)
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        die(f"no repository sources next to {HERE.name}/ to build the benchmark from")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target

    r = Runner(target)
    r.build()
    rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True).stdout.strip() if (ROOT / ".git").exists() else ""
    binaries = hashlib.sha256()
    for exe in ["perfbench"] + EXHIBITS:
        with open(target / "release" / exe, "rb") as f:
            while block := f.read(1 << 20):
                binaries.update(block)
    host = r.perfbench("host")[0] or {}
    prov = {"workload": a.workload, "seed": a.seed, "trace": a.trace, "nproc": os.cpu_count(),
            "jit_host_supported": host.get("jit_host_supported"),
            "git_revision": rev or "unknown", "binaries_sha256": binaries.hexdigest()[:16],
            "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED}
    print("provenance: " + json.dumps(prov))

    store = target / "perfbench" / "counts" / prov["binaries_sha256"]
    counts = Counts("trace" if a.trace else a.workload, a.seed, store)
    report = []
    if a.trace:
        metrics, attempted, failed = run_traced(r, a.seed, counts)
        wanted = spec["per_layer"]
    else:
        metrics, attempted, failed = run_untraced(r, a.workload, a.seed, a.seconds, counts, report)
        wanted = spec["end_to_end"]
    counts.settle()

    for name, value, unit in report:
        print(f"{a.workload}: {name} = {value:.6g} {unit}")
    out = {}
    missing = []
    for m in wanted:
        v = metrics.get(m["name"])
        if v is None or v != v or v in (float("inf"), float("-inf")):
            missing.append(m["name"])
            continue
        out[m["name"]] = {"value": v, "unit": m["unit"]}
        if a.trace:
            print(f"  {m['name']:<36} {v:>12.6g} {m['unit']:<6} moves {moves(m['name'])}")
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
    correct = failed == 0 and counts.ok and not missing
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": out}))


if __name__ == "__main__":
    main()

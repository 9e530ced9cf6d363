#!/usr/bin/env python3
"""End-to-end benchmark of the release `dq` binary.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds `dq` and the
`perfbench` harness in release mode into $CARGO_TARGET_DIR (default
`.bench_build`). Work files go to `.bench_work/` and are removed at exit.

With `--trace 0` the run times the `dq` binary as a user runs it and
prints the end-to-end metrics. With `--trace 1` it repeats the same stage
through the library crates with a span around each call into a layer
(`perfbench/src`) and prints the per-layer metrics. Either way every
output is checked, and the last stdout line is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it holds host and run diagnostics. See README.md for
the workloads, the metrics and what each layer metric should move.
"""

import argparse
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("train-200k", "audit-1m", "generate-1m", "serve-mix")

END_TO_END = [
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("max_rps", "1/s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("table.csv_read.busy_s", "s"),
    ("table.csv_read.mb_per_s", "MB/s"),
    ("table.batches", "count"),
    ("core.model_load.busy_s", "s"),
    ("core.scan.busy_s", "s"),
    ("core.scan.rows", "count"),
    ("core.findings", "count"),
    ("core.report.busy_s", "s"),
    ("core.report.bytes", "bytes"),
    ("table.csv_load.busy_s", "s"),
    ("core.induce.busy_s", "s"),
    ("core.induce.attr_models", "count"),
    ("core.induce.rules", "count"),
    ("core.model_save.busy_s", "s"),
    ("core.model_save.bytes", "bytes"),
    ("tdg.rulegen.busy_s", "s"),
    ("tdg.datagen.busy_s", "s"),
    ("tdg.rows", "count"),
    ("pollute.busy_s", "s"),
    ("pollute.corrupted_rows", "count"),
    ("table.csv_write.busy_s", "s"),
    ("table.csv_write.bytes", "bytes"),
    ("job.commit.busy_s", "s"),
    ("job.commits", "count"),
    ("serve.p50_ms", "ms"),
    ("serve.tail_ms", "ms"),
    ("serve.ttfb_ms", "ms"),
    ("serve.ttfb_tail_ms", "ms"),
    ("serve.transfer_ms", "ms"),
    ("serve.transfer_tail_ms", "ms"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.backlog_max", "count"),
    ("serve.rejected", "count"),
    ("core.record_us", "us"),
    ("core.batch_us", "us"),
    ("trace.overhead", "ratio"),
    ("trace.traced_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.coverage", "ratio"),
]

# Input sizes. `tiny` exists for the benchmark's own tests.
SIZES = {
    "full": {
        "train_rows": 200_000,
        "audit_rows": 1_000_000,
        "sample_rows": 20_000,
        "generate_rows": 1_000_000,
        "generate_warm_rows": 100_000,
        "pool_rows": 4096,
        "ladder_max": 640,
    },
    "tiny": {
        "train_rows": 3_000,
        "audit_rows": 20_000,
        "sample_rows": 3_000,
        "generate_rows": 20_000,
        "generate_warm_rows": 5_000,
        "pool_rows": 1024,
        "ladder_max": 20,
    },
}

SETUP_REPS = 3  # set-ups per benchmark run, at least; setup_s is their median
SETUP_SECONDS = 1.5  # ... and at least this long in total
MIN_REPS = 3  # timed repetitions per run, at least
# Rules of the generated relation. The cost of repairing generated rows
# against 30 random rules varies 2x between seeds; with 10 it varies
# little, so the workload measures the layers rather than the draw.
GENERATE_RULES = 10
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
COMMAND_TIMEOUT = 150.0


class BenchError(Exception):
    pass


def tail_percentile(n):
    """The highest reported percentile with at least ten samples beyond
    it, or 100 (the maximum) when there are too few samples."""
    for p in reversed(PERCENTILES):
        rank = -(-p * n // 100)
        if n >= rank + 10:
            return p
    return 100.0


def percentile(values, p):
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-p * len(ordered) // 100))))
    return ordered[rank - 1]


# ---------------------------------------------------------------- host


def read_steal():
    """Steal ticks (all CPUs) from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def host_info():
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
    }


# ------------------------------------------------------------- processes


def pin():
    """Run a child on one CPU, the last one this process may use: the
    batch stages run with `--threads 1`, and on a small shared machine
    the first CPU also takes most interrupts."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Runner:
    """Builds the binaries, runs commands and keeps run diagnostics."""

    def __init__(self, work, tamper):
        self.work = work
        self.tamper = tamper
        target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        self.target = target if target.is_absolute() else ROOT / target
        self.dq = self.target / "release" / "dq"
        self.harness_bin = self.target / "release" / "perfbench"
        self.reps = []
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def build(self):
        env = dict(os.environ, CARGO_TARGET_DIR=str(self.target))
        for manifest, extra in ((ROOT / "Cargo.toml", ["-p", "dq_cli"]), (BENCH / "Cargo.toml", [])):
            cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", str(manifest)]
            done = subprocess.run(cmd + extra, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd + extra)}")

    def run(self, cmd, name):
        """Run `cmd` to completion; returns (exit code, wall s, rusage,
        stdout text). The wall time spans spawn to reap."""
        out_path = self.work / f"{name}.out"
        with open(out_path, "wb") as out, open(self.work / f"{name}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, preexec_fn=pin)
            timer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage, out_path.read_text(errors="replace")

    def harness(self, *args):
        """Run a perfbench subcommand and parse its JSON result."""
        cmd = [str(self.harness_bin)] + [str(a) for a in args]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=COMMAND_TIMEOUT, preexec_fn=pin)
        if done.returncode != 0:
            raise BenchError(f"perfbench {args[0]} failed: {done.stderr.strip()}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def dq_rep(self, args, name, verify):
        """One verified `dq` invocation; returns (wall, rusage, stdout)."""
        self.attempted += 1
        code, wall, usage, out = self.run([str(self.dq)] + args, name)
        ok = code == 0
        if ok:
            if self.tamper:
                self.tamper_outputs()
                self.tamper = False
            problem = verify(out)
            if problem:
                self.notes.append(f"{name}: {problem}")
                ok = False
        else:
            self.notes.append(f"{name}: dq exited {code}")
        if not ok:
            self.failed += 1
        cpu = usage.ru_utime + usage.ru_stime
        self.reps.append({"name": name, "wall_s": wall, "cpu_s": cpu, "cpu_per_wall": cpu / wall})
        return wall, usage, out

    def tamper_outputs(self):
        """Corrupt the newest output file: the benchmark's own test
        that a wrong output fails the check."""
        files = [p for p in self.work.rglob("*") if p.is_file() and p.suffix in (".csv", ".dqm")]
        victim = max(files, key=lambda p: p.stat().st_mtime_ns)
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0x01
        victim.write_bytes(bytes(data))


def reset(*dirs):
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)


def timed_reps(seconds, rep):
    """A warm-up repetition, then timed ones until `seconds` have passed
    and at least MIN_REPS ran. Returns (walls, peak rss in MB)."""
    rep("warmup")
    walls, peak = [], 0.0
    started = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - started < seconds:
        wall, usage = rep(f"rep{len(walls)}")
        walls.append(wall)
        peak = max(peak, usage.ru_maxrss / 1024.0)
    return walls, peak


def batch_metrics(setups, walls, rows, peak):
    tail_p = tail_percentile(len(walls))
    return {
        "setup_s": statistics.median(setups),
        "rows_per_s": statistics.median(rows / w for w in walls),
        "max_rps": len(walls) / sum(walls),
        "peak_rss_mb": peak,
    }, {
        "op_p50_ms": statistics.median(walls) * 1e3,
        "op_tail_ms": percentile(walls, tail_p) * 1e3,
        "tail_percentile": tail_p,
        "tail_samples": len(walls),
    }


def layer_metrics(ref, extra=None):
    """Per-layer metrics from a traced harness run; layers the workload
    does not touch read 0."""
    m = {name: 0.0 for name, _ in PER_LAYER}
    busy = {k[len("busy."):]: v for k, v in ref.items() if k.startswith("busy.")}
    for layer, secs in busy.items():
        m[f"{layer}.busy_s"] = secs
    for name in m:
        if name in ref and not name.startswith("trace."):
            m[name] = ref[name]
    if busy.get("table.csv_read"):
        m["table.csv_read.mb_per_s"] = ref["table.csv_read.bytes"] / 1e6 / busy["table.csv_read"]
    m["trace.traced_s"] = ref["traced_s"]
    m["trace.untraced_s"] = ref["untraced_s"]
    m["trace.overhead"] = ref["traced_s"] / ref["untraced_s"]
    m["trace.coverage"] = ref.get("coverage", 0.0)
    m.update(extra or {})
    return m


def check_digests(r, expected, files):
    got = r.harness("digest", *files)
    for key, path in zip(expected, files):
        if got[str(path)] != expected[key]:
            return f"{Path(path).name} digest {got[str(path)]} != library {expected[key]}"
    return None


# ------------------------------------------------------------- workloads


def setup_reps(fn):
    """Set up at least SETUP_REPS times and for SETUP_SECONDS; the last
    set-up is the one measured on. Returns each set-up's wall time."""
    times = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def train(r, a, size):
    inp = r.work / "in"
    setups = setup_reps(lambda: r.harness("prepare", "--dir", inp, "--seed", a.seed, "--rows", size["train_rows"]))
    ref = r.harness("stage", "train", "--dir", inp, "--out", r.work / "ref.dqm",
                    "--trace", a.trace, "--seconds", a.seconds)
    out = r.work / "model.dqm"
    args = ["induce", "--schema", str(inp / "schema.dqs"), "--input", str(inp / "input.csv"),
            "--model", str(out), "--threads", "1"]
    verify = lambda _: check_digests(r, {"digest.model": ref["digest.model"]}, [out])
    return finish_batch(r, a, setups, ref, lambda name: r.dq_rep(args, name, verify)[:2])


def audit(r, a, size):
    inp = r.work / "in"
    setups = setup_reps(lambda: r.harness("prepare", "--dir", inp, "--seed", a.seed, "--rows", size["audit_rows"],
                                          "--sample-rows", size["sample_rows"]))
    ref = r.harness("stage", "audit", "--dir", inp, "--out", r.work / "ref.csv",
                    "--trace", a.trace, "--seconds", a.seconds)
    out = r.work / "report.csv"
    args = ["detect", "--schema", str(inp / "schema.dqs"), "--model", str(inp / "models" / "quis.dqm"),
            "--input", str(inp / "input.csv"), "--report", str(out), "--threads", "1"]
    verify = lambda _: check_digests(r, {"digest.report": ref["digest.report"]}, [out])
    return finish_batch(r, a, setups, ref, lambda name: r.dq_rep(args, name, verify)[:2])


GENERATED = ("clean.csv", "dirty.csv", "pollution-log.csv", "rules.txt")
SUMMARY = re.compile(r"(\d+) clean rows, (\d+) dirty rows \((\d+) corrupted\)")


def generate(r, a, size):
    def gen_args(out, ck, rows):
        return ["generate", "tdg", "--out", str(out), "--rows", str(rows), "--rules", str(GENERATE_RULES),
                "--seed", str(a.seed), "--stream-chunk-rows", "4096", "--checkpoint", str(ck), "--threads", "1"]

    warm, warm_ck = r.work / "warm", r.work / "warmck"

    def warm_up():
        reset(warm, warm_ck)
        code, _, _, _ = r.run([str(r.dq)] + gen_args(warm, warm_ck, size["generate_warm_rows"]), "setup")
        if code != 0:
            raise BenchError(f"warm-up generate exited {code}")

    setups = setup_reps(warm_up)
    reset(warm, warm_ck)
    ref = r.harness("stage", "generate", "--out", r.work / "ref", "--ckpt", r.work / "refck",
                    "--rows", size["generate_rows"], "--rules", GENERATE_RULES, "--seed", a.seed,
                    "--trace", a.trace, "--seconds", a.seconds)
    reset(r.work / "ref", r.work / "refck")
    out, ck = r.work / "out", r.work / "ck"

    def verify(stdout):
        expected = {f"digest.{f}": ref[f"digest.{f}"] for f in GENERATED}
        problem = check_digests(r, expected, [out / f for f in GENERATED])
        if problem:
            return problem
        m = SUMMARY.search(stdout)
        counts = tuple(int(x) for x in m.groups()) if m else None
        expected = (ref["tdg.rows"], ref["dirty_rows"], ref["pollute.corrupted_rows"])
        if counts != expected:
            return f"dq reported (clean, dirty, corrupted) {counts}, library {expected}"
        with open(out / "pollution-log.csv", "rb") as f:
            log_lines = sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 20), b""))
        if log_lines != ref["log_cells"] + 1:
            return f"pollution log has {log_lines - 1} cells, library {ref['log_cells']}"
        return None

    def rep(name):
        reset(out, ck)
        return r.dq_rep(gen_args(out, ck, size["generate_rows"]), name, verify)[:2]

    return finish_batch(r, a, setups, ref, rep)


def finish_batch(r, a, setups, ref, rep):
    if a.trace:
        rep("check")
        return layer_metrics(ref), {"setup_s": setups}
    walls, peak = timed_reps(a.seconds, rep)
    metrics, diag = batch_metrics(setups, walls, ref["rows"], peak)
    diag["setup_s"] = setups
    diag["rows"] = ref["rows"]
    return metrics, diag


class Server:
    """A `dq serve` child, stopped with SIGTERM (graceful drain)."""

    def __init__(self, r, models):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            self.addr = f"127.0.0.1:{s.getsockname()[1]}"
        self.peak = 0.0
        self.log = open(r.work / "serve.log", "wb")
        self.proc = subprocess.Popen([str(r.dq), "serve", "--models", str(models), "--addr", self.addr,
                                      "--threads", "1"], stdout=self.log, stderr=self.log)

    def stop(self):
        """SIGTERM, then reap (once)."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            timer = threading.Timer(30, self.proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(self.proc.pid, 0)
            finally:
                timer.cancel()
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak = usage.ru_maxrss / 1024.0
        self.log.close()


def serve(r, a, size):
    inp = r.work / "in"
    servers = []

    def start():
        if servers:
            servers[-1].stop()
        r.harness("prepare", "--dir", inp, "--seed", a.seed, "--sample-rows", size["sample_rows"],
                  "--pool-rows", size["pool_rows"])
        servers.append(Server(r, inp / "models"))
        r.harness("wait-healthy", "--addr", servers[-1].addr)

    try:
        setups = setup_reps(start)
        load = r.harness("load", "--addr", servers[-1].addr, "--dir", inp, "--seed", a.seed,
                         "--seconds", a.seconds / 2, "--trace", a.trace, "--ladder-max", size["ladder_max"],
                         "--tamper", int(r.tamper))
    finally:
        for server in servers:
            server.stop()
    code, peak = servers[-1].proc.returncode, servers[-1].peak
    r.attempted += int(load["attempted"]) + 1
    r.failed += int(load["failed"]) + int(code != 0)
    if load["failed"]:
        r.notes.append(f"serve: {load['failed']} failed requests or checks ({load['mismatched']} mismatched bodies)")
    if code != 0:
        r.notes.append(f"dq serve exited {code} after SIGTERM")
    diag = {"setup_s": setups, "p50_ms": load["p50_ms"], "tail_ms": load["tail_ms"],
            "tail_percentile": load["tail_pct"], "tail_samples": load["n"], "ladder": load.get("ladder"),
            "stats": load["stats"], "checked_bodies": load["checked"]}
    if a.trace:
        extra = {
            "serve.p50_ms": load["p50_ms"],
            "serve.tail_ms": load["tail_ms"],
            "serve.ttfb_ms": load["ttfb_ms"],
            "serve.ttfb_tail_ms": load["ttfb_tail_ms"],
            "serve.transfer_ms": load["transfer_ms"],
            "serve.transfer_tail_ms": load["transfer_tail_ms"],
            "serve.gen_lag_ms": load["gen_lag_ms"],
            "serve.backlog_max": load["backlog_max"],
            "serve.rejected": load["rejected"],
            "core.record_us": load["record_us"],
            "core.batch_us": load["batch_us"],
            "trace.coverage": load["wire_share"],
        }
        return layer_metrics({"traced_s": load["traced_s"], "untraced_s": load["untraced_s"]}, extra), diag
    return {
        "setup_s": statistics.median(setups),
        "rows_per_s": load["rows_per_s"],
        "max_rps": load["max_rps"],
        "peak_rss_mb": peak,
    }, diag


# ------------------------------------------------------------------ main


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--tamper", action="store_true", help="corrupt one output before it is checked")
    a = ap.parse_args()

    work = ROOT / ".bench_work" / f"{a.workload}-{a.seed}-{os.getpid()}"
    reset(work)
    work.mkdir(parents=True)
    r = Runner(work, a.tamper)
    try:
        r.build()
        steal0, t0 = read_steal(), time.perf_counter()
        fn = {"train-200k": train, "audit-1m": audit, "generate-1m": generate, "serve-mix": serve}[a.workload]
        values, diag = fn(r, a, SIZES[a.size])
        steal1 = read_steal()
    except (BenchError, OSError, subprocess.SubprocessError, KeyError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    finally:
        reset(work)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    spec = PER_LAYER if a.trace else END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in spec}
    diagnostics = {
        "workload": a.workload,
        "seed": a.seed,
        "trace": a.trace,
        "host": host_info(),
        "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
        "run_s": time.perf_counter() - t0,
        "error_rate": r.failed / max(1, r.attempted),
        "reps": r.reps,
        "problems": r.notes,
        **diag,
    }
    print(json.dumps({"diagnostics": diagnostics}))
    result = {"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

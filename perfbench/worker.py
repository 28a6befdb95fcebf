"""One workload process of the isolab benchmark.

Started by run.py, never by hand. It imports the program from the
checkout's src/, builds the seeded job list, prints "ready" and the
normalised set-up time (see probe.py), then runs closed-loop rounds: one
client, and the next job starts only when the previous verdict has returned. Its last stdout line is one
JSON object with the raw samples; run.py turns them into metrics.

Untraced: whole rounds of the job list, until another round of the same
length would pass --seconds (at least one round), with the speed probe
running. Traced: one untraced round, then one round with the tracer
installed; neither runs the probe.
"""

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

from probe import SpeedProbe

# Set-up, imports included, runs under the speed probe from here.
SETUP_PROBE = SpeedProbe().start()

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy  # noqa: E402,F401  the program's dependencies load during set-up
import scipy.integrate  # noqa: E402,F401
import isolab  # noqa: E402,F401

import workloads  # noqa: E402
from tracer import EXACT_REPEAT, Tracer  # noqa: E402


class RoundContext:
    """Per-round scratch: fresh file paths, built solutions, and a sink for
    byte counts when the round is traced."""

    def __init__(self, tmp, label, tracer=None):
        self.tmp = tmp
        self.label = label
        self.job = 0
        self.state = {}
        self._tracer = tracer

    def path(self, name):
        """A path no earlier job wrote: rewriting one file in place makes
        ext4 start writeback on close, which adds disk noise to small jobs."""
        return str(Path(self.tmp, f"{self.label}-{self.job}-{name}"))

    def note(self, name, value):
        if self._tracer is not None:
            self._tracer.note(name, value)


def run_round(jobs, tmp, label, tracer=None):
    ctx = RoundContext(tmp, label, tracer)
    clock = time.perf_counter
    latencies, wrong = [], []
    spans = []
    first = last = clock()
    for idx, job in enumerate(jobs):
        ctx.job = idx
        if tracer is not None:
            tracer.begin_job(idx, job.name)
        t0 = clock()
        try:
            verdict, error = bool(job.run(ctx)), None
        except Exception as exc:  # a raised job is a wrong verdict, not a crash
            verdict, error = None, f"{type(exc).__name__}: {exc}"
        last = clock()
        if tracer is not None:
            tracer.end_job()
        latencies.append(last - t0)
        spans.append((t0, last))
        if verdict != job.expect:
            wrong.append({"job": job.name, "expected": job.expect,
                          "verdict": verdict, "error": error,
                          "known_defect": job.known_defect})
    return {"wall_s": last - first, "latencies": latencies, "wrong": wrong,
            "spans": spans, "bounds": (first, last)}


def run_probed_round(jobs, tmp, label):
    """An untraced round under the speed probe. Latencies and the round's
    wall time exclude probe time; each also comes normalised."""
    with SpeedProbe() as probe:
        r = run_round(jobs, tmp, label)
    pairs = [probe.durations(a, b) for a, b in r.pop("spans")]
    r["latencies"] = [raw for raw, _ in pairs]
    r["latencies_norm"] = [norm for _, norm in pairs]
    r["wall_s"], r["wall_norm_s"] = probe.durations(*r.pop("bounds"))
    r.update(probe.stats())
    return r


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="run.py's perf_counter when it started this process")
    args = ap.parse_args()

    Path(args.out, "tmp").mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=Path(args.out, "tmp"))
    try:
        jobs = workloads.make_jobs(args.workload, args.seed,
                                   RoundContext(tmp, "setup"))
        ready = time.perf_counter()
        SETUP_PROBE.stop()
        print("ready", SETUP_PROBE.durations(args.spawned_at, ready)[1], flush=True)
        if args.setup_only:
            return 0
        rounds, layers, exact = [], None, {"jobs": len(jobs)}
        if args.trace:
            rounds.append(run_round(jobs, tmp, "untraced"))
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_round(jobs, tmp, "traced", tracer)
            finally:
                tracer.uninstall()
            rounds.append(traced)
            layers = tracer.metrics()
            layers["trace.overhead_s"] = traced["wall_s"] - rounds[0]["wall_s"]
            exact.update({name: layers[name] for name in EXACT_REPEAT})
            spans = Path(args.out, "spans")
            spans.mkdir(exist_ok=True)
            tracer.write_spans(spans / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            start = time.perf_counter()
            while True:
                rounds.append(run_probed_round(jobs, tmp, f"round{len(rounds)}"))
                elapsed = time.perf_counter() - start
                if elapsed + rounds[-1]["wall_s"] > args.seconds:
                    break
        print(json.dumps({
            "jobs_per_round": len(jobs),
            "job_names": [job.name for job in jobs],
            "round_walls": [r["wall_s"] for r in rounds],
            "latencies": [t for r in rounds for t in r["latencies"]],
            "round_walls_norm": [r.get("wall_norm_s") for r in rounds],
            "latencies_norm": [t for r in rounds for t in r.get("latencies_norm", ())],
            "probes": [r.get("probes") for r in rounds],
            "probe_median_s": [r.get("probe_median_s") for r in rounds],
            "wrong": [w for r in rounds for w in r["wrong"]],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "layers": layers,
            "exact": exact,
        }), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

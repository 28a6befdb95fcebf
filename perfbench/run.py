"""isolab benchmark: seeded closed-loop workloads against the public API and CLI.

    python3 perfbench/run.py --workload exact-inmemory --seed 1 --seconds 20 --trace 0

--workload is exact-inmemory, cli-documents, numeric, or all (each in turn).
--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and one
traced round and prints the per-layer metrics. The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}; the lines above it
repeat each metric with its unit and sample count. A JSON record of every run
goes to perfbench/out/records/, and the spans of a traced run to
perfbench/out/spans/.

Each workload runs in its own worker process (worker.py) with a fixed hash
seed, so operation counts repeat exactly. Set-up time runs from the parent
starting the worker until the worker reports that its first job can be
issued, repeated in extra set-up-only processes and reported as the median.
The end-to-end times are speed-normalised seconds (probe.py); the raw ones
are printed and recorded beside them with a raw_ prefix.
"""

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import EXERCISED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("exact-inmemory", "cli-documents", "numeric")
SETUP_SAMPLES = 5          # set-ups per run, the measured run included
DEADLINE_S = 170.0         # one workload, all its worker processes together


class BenchError(Exception):
    pass


def _spawn(argv, deadline):
    """Run a worker; return ((raw, normalised) set-up seconds, parsed last
    stdout line or None)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv,
                             "--spawned-at", repr(start)],
                            stdout=subprocess.PIPE, cwd=ROOT, env=env)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=max(0.0, deadline - time.perf_counter())):
                raise BenchError("worker did not finish set-up in time")
        line = proc.stdout.readline().split()
        setup_raw = time.perf_counter() - start
        if len(line) != 2 or line[0] != b"ready":
            raise BenchError("worker failed during set-up")
        setup = (setup_raw, float(line[1]))
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def _code_hash():
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            if OUT not in path.parents:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_repeat(workload, seed, exact):
    """Exact-repeat counts must match every earlier run of the same code,
    workload and seed; returns the names that differ."""
    path = OUT / "repeat" / f"{workload}-seed{seed}-{_code_hash()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    known = json.loads(path.read_text()) if path.exists() else {}
    differ = [k for k in exact if k in known and known[k] != exact[k]]
    if not differ:
        path.write_text(json.dumps({**known, **exact}, indent=1, sort_keys=True))
    return differ


def run_workload(workload, seed, seconds, trace, spec, deadline):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--out", str(OUT)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_spawn(argv + ["--setup-only"], deadline)[0])
    setup, raw = _spawn(argv, deadline)
    setups.append(setup)

    lat = raw["latencies"]
    attempted = len(lat)
    wrong = raw["wrong"]
    unexpected = [w for w in wrong if not w["known_defect"]]
    problems = [f"unexpected wrong verdict: {w}" for w in unexpected]
    samples = {}
    if trace:
        metrics = dict(raw["layers"])
        for name in EXERCISED[workload]:
            if not metrics[name]:
                problems.append(f"{name} reads 0 on {workload}")
        samples["layers"] = f"1 traced round of {raw['jobs_per_round']} jobs"
        names = spec["per_layer"]
    else:
        lat_norm = raw["latencies_norm"]
        metrics = {
            "setup_s": statistics.median(norm for _, norm in setups),
            "wall_s": statistics.median(raw["round_walls_norm"]),
            "job_p50_s": statistics.median(lat_norm),
            "job_p90_s": statistics.quantiles(lat_norm, n=10)[8],
            "verdict_ok_share": 1.0 - len(wrong) / attempted,
            "peak_rss_mb": raw["peak_rss_mb"],
            # raw perf_counter seconds, printed and recorded beside the
            # speed-normalised ones (see probe.py and README.md)
            "raw_setup_s": statistics.median(r for r, _ in setups),
            "raw_wall_s": statistics.median(raw["round_walls"]),
            "raw_job_p50_s": statistics.median(lat),
            "raw_job_p90_s": statistics.quantiles(lat, n=10)[8],
        }
        samples = {"setup_s": f"{len(setups)} set-ups",
                   "wall_s": f"{len(raw['round_walls'])} round(s)",
                   "job_p50_s": f"{attempted} jobs",
                   "job_p90_s": f"{attempted} jobs",
                   "verdict_ok_share": f"{attempted} jobs",
                   "peak_rss_mb": "1 process"}
        for name in ("setup_s", "wall_s", "job_p50_s", "job_p90_s"):
            samples["raw_" + name] = samples[name]
        names = spec["end_to_end"]
    differ = _check_repeat(workload, seed, raw["exact"])
    problems += [f"exact-repeat count {k} differs from an earlier run" for k in differ]

    units = {m["name"]: m["unit"] for m in names}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(wrong),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "code_hash": _code_hash(), "time_utc": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "jobs_per_round": raw["jobs_per_round"], "samples": samples,
        "setup_samples_s": [norm for _, norm in setups],
        "raw_setup_samples_s": [r for r, _ in setups],
        "round_walls_s": raw["round_walls_norm"],
        "raw_round_walls_s": raw["round_walls"],
        "probes_per_round": raw["probes"], "probe_median_s": raw["probe_median_s"],
        "wrong_verdict_share": len(wrong) / attempted, "wrong": wrong,
        "exact_repeat": raw["exact"], "problems": problems,
        "raw_job_latencies_s": [[name, lat[k::raw["jobs_per_round"]]]
                                for k, name in enumerate(raw["job_names"])],
        **result,
    }
    rec = OUT / "records"
    rec.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())

    shown = dict(units)
    if not trace:
        shown.update((k, "s") for k in metrics if k.startswith("raw_"))
        record["raw_metrics_s"] = {k: metrics[k] for k in metrics if k.startswith("raw_")}
        record["job_latencies_s"] = [
            [name, raw["latencies_norm"][k::raw["jobs_per_round"]]]
            for k, name in enumerate(raw["job_names"])]
    (rec / f"{stamp}-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1))
    for name in shown:
        note = f"  ({samples[name]})" if name in samples else ""
        print(f"{workload} seed={seed}: {name} = {metrics[name]:.6g} "
              f"{shown[name]}{note}")
    if not trace:
        print(f"{workload} seed={seed}: wrong_verdict_share = "
              f"{len(wrong) / attempted:.6g} share  ({len(wrong)} of "
              f"{attempted} jobs; {len(wrong) - len(unexpected)} known defects)")
    for p in problems:
        print(f"{workload} seed={seed}: PROBLEM {p}", file=sys.stderr)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "isolab" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from an isolab checkout (src/isolab and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, spec,
                                   time.perf_counter() + DEADLINE_S)
                   for w in chosen}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""vilenkin-lab benchmark: the command that runs a workload and reports it.

    python3 perfbench/run.py --workload cap-spectral --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all

Every sample runs in a fresh process (``worker.py``).  With ``--trace 0``
run.py takes two set-up-only samples and one full run and reports the
end-to-end metrics; with ``--trace 1`` it runs the workload untraced, then
traced, then the numpy reference ceilings, and reports the per-layer
metrics.  The metric names and units come from ``BENCHMARK.json``.  The
last line of stdout is one JSON object; a full record of the run goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 3  # two set-up-only processes plus the measured run's own
# Mean time of one HostProbe sample (worker.py) on the reference host, a
# 2-vCPU KVM guest on a Xeon (Sapphire Rapids) host, in a calm period.
# Timings are divided by the probe's mean in the same process over this.
PROBE_REFERENCE_S = 0.007
DEADLINE_S = 170


class ChildFailed(RuntimeError):
    pass


def pinned_env() -> dict:
    threads = str(min(2, len(os.sched_getaffinity(0))))
    pins = {
        var: threads
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    }
    pins["PYTHONHASHSEED"] = "0"
    return pins


def spawn(mode: str, args, deadline: float, spans: Path | None = None, seconds: float | None = None) -> dict:
    spawned = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds if seconds is None else seconds), "--spawned", repr(spawned),
    ]
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(
            cmd, env={**os.environ, **pinned_env()}, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} process for {args.workload} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{mode} process for {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_factor(process: dict) -> float:
    """How much slower than the reference host a process ran: the mean of
    its probe samples over the probe's mean on the reference host."""
    return statistics.fmean(process["probe_s"]) / PROBE_REFERENCE_S


def op_means(run: dict) -> list[float]:
    """Each op's mean latency over the run's passes, in op-list order."""
    by_op: dict = {}
    for label, latency, _ in run["ops"]:
        by_op.setdefault(label, []).append(latency)
    return [statistics.fmean(latencies) for latencies in by_op.values()]


def timings(run: dict) -> dict:
    """The run's op times in reference-host seconds."""
    factor = host_factor(run)
    means = op_means(run)
    return {
        "wall_s": sum(means) / factor,
        "op_gmean_s": statistics.geometric_mean(means) / factor,
        "op_p50_s": statistics.median(means) / factor,
        "host_factor": factor,
        "measured_wall_s": sum(means),
    }


def summarize_run(run: dict) -> tuple[int, int]:
    return len(run["ops"]), sum(1 for _, _, errs in run["ops"] if errs)


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    samples = [spawn("setup", args, deadline) for _ in range(SETUP_SAMPLES - 1)]
    run = spawn("run", args, deadline)
    samples.append(run)
    times = timings(run)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] / host_factor(p) for p in samples),
        "wall_s": times["wall_s"],
        "op_gmean_s": times["op_gmean_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    detail = {
        "also": {"op_p50_s": times["op_p50_s"]},
        "host": {
            "run_factor": times["host_factor"],
            "measured_wall_s": times["measured_wall_s"],
            "setup_factors": [host_factor(p) for p in samples],
            "measured_setup_s": [p["setup_s"] for p in samples],
        },
        "runs": {"run": run},
    }
    return metrics, detail


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    # The untraced and the traced run share the run time, so a traced
    # sample costs about as long as an untraced one.
    plain = spawn("run", args, deadline, seconds=args.seconds / 2)
    spans = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
    traced = spawn("trace", args, deadline, spans, seconds=args.seconds / 2)
    ref = spawn("ref", args, deadline)
    metrics = {
        **traced.pop("layers"),
        **ref["metrics"],
        "trace.overhead_s": timings(traced)["wall_s"] - timings(plain)["wall_s"],
        "trace.top_span_share": traced["top_span_share"],
    }
    detail = {"runs": {"run": plain, "trace": traced}, "reference_ceilings": ref["info"], "spans_file": spans.name}
    return metrics, detail


def run_workload(args, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    values, detail = measure(args, deadline)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise ChildFailed(f"metrics not produced: {missing}")
    attempted = failed = 0
    for run in detail["runs"].values():
        a, f = summarize_run(run)
        attempted, failed = attempted + a, failed + f
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    why = next((w["why"] for w in spec["workloads"] if w["name"] == args.workload), "")
    record = {
        **result,
        "fail_ratio": failed / attempted,
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": detail["runs"]["run"]["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_env": pinned_env(),
        "op_count": {name: summarize_run(run)[0] for name, run in detail["runs"].items()},
        **detail,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result, detail.get("also", {})


def summary_line(workload: str, result: dict, also: dict) -> str:
    """Every metric by name and unit, plus the reported-only figures."""
    parts = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    parts += [f"{name}={value:.6g} s" for name, value in also.items()]
    ratio = result["failed"] / result["attempted"]
    return f"{workload}: " + ", ".join(parts) + f", fail_ratio={ratio:g} ratio ({result['failed']}/{result['attempted']} ops)"


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="vilenkin-lab benchmark")
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="op time to measure (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vilenkin_lab" / "__init__.py").is_file():
        print(f"no vilenkin_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    RESULTS.mkdir(exist_ok=True)
    names = workloads if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            args.workload = name
            results[name], also = run_workload(args, spec)
            print(summary_line(name, results[name], also), flush=True)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

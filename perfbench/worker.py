"""One benchmark process: set up a workload, run its timed phase, report.

Started by ``run.py`` in a fresh interpreter for every sample, so set-up
time includes interpreter start, the ``vilenkin_lab`` import and the cold
``lru_cache`` tables.  Prints one JSON object on the last line of stdout.

Modes:
  setup  set up, time the host probe and stop (a set-up time sample);
  run    set up, then repeat the workload's fixed op list until --seconds
         of op time have passed (and at least the workload's MIN_PASSES),
         checking every op and timing the host probe outside the op's
         clock;
  trace  as ``run`` with spans around the library's public functions;
  ref    numpy reference ceilings (FFT rate, large-array copy bandwidth).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

COPY_BYTES = 432 * 2**20  # >= 4x the 105 MiB L3 of the reference machine
PROBE_CELLS = 2**20  # float64: 8 MiB, past the 2 MiB L2 of one core
PROBE_FRESH = 2**19  # complex128: 8 MiB, allocated anew for every sample
PROBE_FFT = 2**15
PROBE_LOOP = 20_000
PROBE_REPS = 3  # probe samples after every op, plus one per PROBE_EVERY_S of it
PROBE_EVERY_S = 0.5
PROBE_SETUP_REPS = 40


class HostProbe:
    """A fixed kernel that does not touch the library, timed between ops.

    The host shares its cores with other tenants, and its speed changes
    from one second to the next and, in slow periods, for minutes at a
    time.  The probe runs the kinds of work the workloads do: an
    interpreter loop, many numpy calls on small arrays, passes over arrays
    in L2 and past it, an FFT, and a fresh 8 MiB array (page faults and
    memory traffic).  The mean of its samples over a run measures how fast
    the host ran during that run, whatever the library does; ``run.py``
    divides the run's times by it.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._small = np.ones(256)
        self._small_out = np.empty_like(self._small)
        self._reverse = np.arange(256)[::-1].copy()
        self._src = np.ones(PROBE_CELLS)
        self._dst = np.empty_like(self._src)
        self._fft = np.ones(PROBE_FFT, dtype=np.complex128)
        self.samples: list[float] = []
        self.parts: list[list[float]] = []

    def sample(self, reps: int = PROBE_REPS) -> None:
        np = self._np
        mid = PROBE_CELLS // 8
        for _ in range(reps):
            t = [time.perf_counter()]
            acc = 0
            for i in range(PROBE_LOOP):
                acc += i * i
            t.append(time.perf_counter())
            for _ in range(400):
                np.add(self._small, self._small[self._reverse], out=self._small_out)
            t.append(time.perf_counter())
            for _ in range(4):
                np.multiply(self._src[:mid], 1.0000001, out=self._dst[:mid])
            t.append(time.perf_counter())
            np.multiply(self._src, 1.0000001, out=self._dst)
            t.append(time.perf_counter())
            np.fft.fft(self._fft)
            t.append(time.perf_counter())
            fresh = np.ones(PROBE_FRESH, dtype=np.complex128)
            fresh *= 1.0000001
            del fresh
            t.append(time.perf_counter())
            self.samples.append(t[-1] - t[0])
            self.parts.append([b - a for a, b in zip(t, t[1:])])


class Runner:
    """Times each op from its start until it hands its output to ``lap``."""

    def __init__(self, workload, probe: HostProbe, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.probe = probe
        self.ops: list[tuple[object, float, list[str]]] = []

    def _start(self) -> None:
        if self.tracer:
            self.tracer.begin_op(len(self.ops))
        self._t0 = time.perf_counter()

    def lap(self, label, output) -> None:
        latency = time.perf_counter() - self._t0
        if self.tracer:
            self.tracer.end_op()
        try:
            errs = self.workload.check(label, output)
        except Exception:  # a check that crashes is a failed check
            errs = [traceback.format_exc()]
        self.ops.append((label, latency, errs))
        self._wall += latency
        # Samples in proportion to the op's time, so the probe's mean weighs
        # every second of op time alike, as the run's op time does.
        self.probe.sample(PROBE_REPS + int(latency / PROBE_EVERY_S))
        self._start()

    def run_pass(self) -> float:
        self._wall = 0.0
        self._start()
        try:
            self.workload.run_pass(self.lap)
        except Exception:  # the op that raised counts as attempted and failed
            latency = time.perf_counter() - self._t0
            self.ops.append((("error",), latency, [traceback.format_exc()]))
            self._wall += latency
        if self.tracer:
            self.tracer.end_op()
        return self._wall


def ref_ceilings() -> dict:
    import numpy as np

    def median_time(fn, reps: int = 5) -> float:
        fn()
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    rng = np.random.default_rng(0)
    out = {}
    for bits in (20, 22):
        x = rng.standard_normal(2**bits) + 1j * rng.standard_normal(2**bits)
        out[f"ref.numpy_fft_2p{bits}.cells_per_s"] = 2**bits / median_time(lambda: np.fft.fft(x))
    del x
    src = np.ones(COPY_BYTES // 8)
    dst = np.empty_like(src)
    # read + write of the whole array, computed from its size
    out["ref.copy.bytes_per_s"] = 2 * COPY_BYTES / median_time(lambda: np.copyto(dst, src))
    try:
        l3 = (Path("/sys/devices/system/cpu/cpu0/cache/index3/size")).read_text().strip()
    except OSError:
        l3 = None
    return {"metrics": out, "info": {"copy_array_bytes": COPY_BYTES, "fft_sizes": [2**20, 2**22], "l3_cache": l3}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "trace", "ref"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--spans", help="file for the trace mode's spans")
    args = parser.parse_args(argv)

    if args.mode == "ref":
        print(json.dumps(ref_ceilings()))
        return 0

    sys.path.insert(0, str(SRC))
    import numpy
    import vilenkin_lab

    if Path(vilenkin_lab.__file__).resolve().parent != (SRC / "vilenkin_lab").resolve():
        print(f"vilenkin_lab imported from {vilenkin_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    tracer = None
    if args.mode == "trace":
        from tracing import SETUP_OP, Tracer

        # Set-up is traced as its own op, so the cache metrics see the
        # cold table builds that set-up pays for.
        tracer = Tracer()
        tracer.install()
        tracer.begin_op(SETUP_OP)
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    result = {"setup_s": time.monotonic() - args.spawned}
    if tracer:
        tracer.end_op()
    probe = HostProbe()
    if args.mode == "setup":
        probe.sample(PROBE_SETUP_REPS)
        print(json.dumps({**result, "probe_s": probe.samples}))
        return 0

    runner = Runner(workload, probe, tracer)
    passes = []
    while len(passes) < workload.MIN_PASSES or sum(passes) < args.seconds:
        passes.append(runner.run_pass())
    for label, _, errs in runner.ops:
        for err in errs:
            print(f"{args.workload} {label}: CHECK FAILED: {err}", file=sys.stderr)

    result.update(
        passes=passes,
        ops=[[str(label), latency, len(errs)] for label, latency, errs in runner.ops],
        probe_s=runner.probe.samples,
        probe_parts=runner.probe.parts,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        numpy=numpy.__version__,
    )
    if tracer:
        from tracing import layer_metrics, top_span_seconds

        result["layers"] = layer_metrics(tracer.spans, tracer.cache_deltas)
        result["top_span_share"] = top_span_seconds(tracer.spans) / sum(passes)
        if args.spans:
            tracer.dump(Path(args.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

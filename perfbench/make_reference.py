"""Regenerate ``reference.json``, the values the output checks compare with.

    python3 perfbench/make_reference.py

* cap-spectral: the weak divergence statistic at every level the seed can
  draw, computed by the Walsh oracle (Hadamard transform and closed form),
  not by the library.  These hold for every seed.
* random-parseval: the statistics of the default seed's ops.
* gate-suite: the records of the shipped configs at their shipped seeds.

Every op is checked against the independent oracles before its value is
stored, so a library defect cannot enter the reference silently.  Takes a
few minutes (the cap-spectral oracle works at 2^22 cells).
"""

from __future__ import annotations

import json
import sys

from worker import SRC

sys.path.insert(0, str(SRC))

from workloads import (  # noqa: E402
    DEFAULT_SEED, HERE, CapSpectral, GateSuite, RandomParseval,
)


def checked_outputs(workload) -> list:
    workload.references = None
    workload.setup()
    outputs = []

    def lap(label, output):
        errs = workload.check(label, output)
        if errs:
            raise SystemExit(f"{workload.name} {label}: {errs}")
        outputs.append((label, output))

    workload.run_pass(lap)
    return outputs


def main() -> int:
    (HERE / "results").mkdir(exist_ok=True)
    ref = {}

    cap = CapSpectral(DEFAULT_SEED)
    cap.references = None
    cap.setup()
    ref[cap.name] = {str(k): cap.weak_reference(k) for k in range(1, cap.depth - 1)}

    rp = RandomParseval(DEFAULT_SEED)
    ref[rp.name] = [rp.reference_record(out) for _, out in checked_outputs(rp)]

    gate = GateSuite(DEFAULT_SEED)
    ref[gate.name] = {}
    for label, output in checked_outputs(gate):
        if label[0] == "config":
            cfg, result, path = output
            _, rows = GateSuite.read_rows(path)
            ref[gate.name][label[1]] = [{k: v for k, v in row.items() if k != "config"} for row in rows]

    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

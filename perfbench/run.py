"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload http_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
traced phases and reports the per-layer metrics instead. Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The full
result, with provenance and sample counts, is also written under
``perfbench/out/`` (and the span dump of a traced run beside it).

Run from the root of a checkout of the repository; the program under
test is imported from its ``src/`` directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("http_evaluate", "http_sweep", "lib_study")

#: End-to-end metric units, in report order.
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_p90_ms": "ms"}


def _git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_times() -> list | None:
    """The machine-wide CPU time counters of ``/proc/stat`` (Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            return [int(field) for field in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def provenance(root: Path) -> dict:
    import numpy
    return {"git_sha": _git_sha(root), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg_1m_start": os.getloadavg()[0]}


def steal_share(before: list | None, after: list | None) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between
    two ``/proc/stat`` readings: high values mark a noisy run."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total else None


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _report_lines(args, outcome, metrics: dict, units: dict) -> list:
    samples = outcome.samples
    lines = [f"# perfbench {args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}"]
    for name, value in metrics.items():
        lines.append(f"{name:32s} {value:14.6g} {units[name]}")
    attempted = outcome.attempted
    failed = len(outcome.failures)
    lines.append(f"{'error_ratio':32s} {failed / attempted:14.6g} "
                 f"({failed} of {attempted} operations)")
    lines.append("samples " + json.dumps(samples, sort_keys=True))
    lines.extend(outcome.notes)
    lines.extend(f"FAILED: {reason}" for reason in outcome.failures[:10])
    return lines


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import measure
    from perfbench.ledger import PER_LAYER

    stamp = provenance(ROOT)
    cpu_before = _cpu_times()
    outcome = measure.run(args.workload, args.seed, args.seconds,
                          bool(args.trace), ROOT)
    stamp["loadavg_1m_end"] = os.getloadavg()[0]
    stamp["steal_share"] = steal_share(cpu_before, _cpu_times())
    if outcome.attempted < 1:
        print("error: no operation completed", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: outcome.metrics[name] for name in units}
    result = {"correct": not outcome.failures,
              "attempted": outcome.attempted,
              "failed": len(outcome.failures),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if outcome.spans is not None:
        outcome.spans.dump(out / f"{stem}-spans.jsonl")
    (out / f"{stem}.json").write_text(json.dumps(
        {**result, "provenance": stamp, "samples": outcome.samples,
         "failures": outcome.failures, "notes": outcome.notes},
        indent=2, sort_keys=True) + "\n")
    for line in _report_lines(args, outcome, metrics, units):
        print(line)
    print("provenance " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

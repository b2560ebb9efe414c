"""mixbo benchmark: one workload, one run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload ablation-ladder --seed 1 --seconds 10 --trace 0

Workloads: ablation-ladder, mixed-d64, serve-d32 (see perfbench/README.md).
With ``--trace 0`` the run is timed and prints the end-to-end metrics;
with ``--trace 1`` it wraps every layer and prints the per-layer ones,
writing the spans under ``.perfbench_out/``. Timings are CPU seconds of
the processes doing the work; their wall-clock counterparts are on the
summary line printed before the result. The run fails (exit code 1) if
an output check fails, and exits with code 2 when the mixbo sources are
missing. Each workload runs in fresh worker processes, which pin BLAS to
one thread; this script itself imports only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBES = {"full": 5, "tiny": 1}  # fresh processes timed for setup_s
TIME_LIMIT_S = 170.0


def declared() -> tuple[list[str], dict[str, str]]:
    """Workload names and metric units, from BENCHMARK.json beside perfbench/."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    return [w["name"] for w in bench["workloads"]], units


class WorkerError(RuntimeError):
    pass


def cpu_stat() -> list[int] | None:
    """The machine's cumulative CPU time counters (Linux /proc/stat), if any."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_frac(before, after) -> float | None:
    """Share of CPU time the hypervisor took away between two cpu_stat()s."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


def worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run worker.py; return its JSON line and the monotonic time it was started."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - started, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{' '.join(args)} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1]), started


def main(argv: list[str] | None = None) -> int:
    workloads, units = declared()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(PROBES), default="full",
                        help="tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "mixbo", "__init__.py")):
        print(f"error: mixbo sources not found under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    seed = str(args.seed)
    setups: list[float] = []
    setups_wall: list[float] = []
    probes = 0 if args.trace else PROBES[args.size]

    def probe(count: int) -> None:
        for _ in range(count):
            out, started = worker(["setup", args.workload, seed, args.size], deadline)
            setups.append(out["cpu_s"])
            setups_wall.append(out["wall_s"] if "wall_s" in out else out["ready"] - started)

    try:
        # half of the set-up probes before the measured worker and half
        # after, so a slow spell of the machine does not set the median
        probe((probes + 1) // 2)
        stat0 = cpu_stat()
        result, _ = worker(
            ["run", args.workload, seed, str(args.seconds), str(args.trace), args.size], deadline
        )
        stat1 = cpu_stat()
        probe(probes // 2)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    problems = result["problems"]
    correct = not problems and result["failed"] == 0
    for name in sorted(metrics):
        print(f"{name:45s} {metrics[name]:14.6g} {units[name]}")
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "score": result["score"],
        "error_rate": result["failed"] / result["attempted"],
        "setup_samples_s": setups,
        "wall_setup_s": statistics.median(setups_wall) if setups_wall else None,
        "steal_frac": steal_frac(stat0, stat1),
        **result.get("notes", {}),
        "env": result["env"],
        "problems": problems,
    }
    print(json.dumps(summary))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

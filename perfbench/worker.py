"""One benchmark workload in a fresh process; run.py starts it.

    python worker.py setup WORKLOAD SEED SIZE
        Make the inputs and the first optimizer, then print the CPU
        seconds used until it was ready and the monotonic time it was
        ready (serve-d32: the server's CPU seconds until its ack of
        hello, and the wall seconds from starting it).
    python worker.py run WORKLOAD SEED SECONDS TRACE SIZE
        Run the workload and print its metrics as one JSON line.

BLAS is pinned to one thread here, before numpy is first imported, and
the setting is inherited by the servers this process starts.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, SRC)
# the mixbo servers this process starts import the same sources
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, HERE, os.environ.get("PYTHONPATH")) if p)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP = {"ablation-ladder": wl.ablation_setup, "mixed-d64": wl.d64_setup}
RUN = {"ablation-ladder": wl.ablation_run, "mixed-d64": wl.d64_run, "serve-d32": wl.serve_run}


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def timed_metrics(workload: str, m: wl.Measure) -> tuple[dict, dict]:
    who = resource.RUSAGE_CHILDREN if workload == "serve-d32" else resource.RUSAGE_SELF
    pct = wl.tail_percentile(m.per_unit_suggests)
    if not m.suggest_s:
        m.problems.append("no suggest after the init design completed")
    cpu, wall = m.suggest_s or [0.0], m.suggest_wall_s or [0.0]
    metrics = {
        "suggest_p50_s": float(np.median(cpu)),
        "suggest_tail_s": float(np.percentile(cpu, pct)),
        "evals_per_s": m.evals / m.loop_s if m.loop_s else 0.0,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    notes = {
        "suggest_tail_percentile": pct,
        "suggest_samples": len(m.suggest_s),
        "units": m.units,
        "wall_suggest_p50_s": float(np.median(wall)),
        "wall_suggest_tail_s": float(np.percentile(wall, pct)),
        "wall_evals_per_s": m.evals / m.loop_wall_s if m.loop_wall_s else 0.0,
    }
    return metrics, notes


def traced_metrics(workload: str, seed: int, m: wl.Measure) -> dict:
    layers = tracing.layer_metrics(m.tracer)
    client = m.bench_tracer
    replies_s = client.total("cli.suggest_request") + client.total("cli.observe")
    optimizer_s = layers["optimizer.suggest.s"] + layers["optimizer.observe.s"]
    layers.update({
        "optimizer.batch_distinct_frac": float(np.mean(m.distinct)) if m.distinct else 0.0,
        "cli.self_s": replies_s - optimizer_s if workload == "serve-d32" else 0.0,
        "cli.error_replies": m.error_replies,
        "bench.evaluate.s": client.total("bench.evaluate"),
        "trace.overhead_frac": (m.replayed_s - m.replay_s) / m.replay_s if m.replay_s else 0.0,
    })
    for arm in wl.TRACED_ARMS:
        layers[f"bench.score.{arm}"] = m.scores.get(arm, 0.0)
    m.tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl"))
    if client is not m.tracer:
        client.write(os.path.join(OUT_DIR, f"spans-{workload}-{seed}-client.jsonl"))
    return layers


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        spec = wl.SPECS[argv[3]][workload]
        if workload == "serve-d32":
            cpu, wall = wl.serve_setup(seed, spec)
            print(json.dumps({"cpu_s": cpu, "wall_s": wall}))
        else:
            SETUP[workload](seed, spec)
            print(json.dumps({"cpu_s": time.process_time(), "ready": time.monotonic()}))
        return 0
    seconds, traced, size = float(argv[3]), argv[4] == "1", argv[5]
    spec = wl.SPECS[size][workload]
    dump = os.path.join(OUT_DIR, f"server-{workload}-{seed}.json") if traced else None
    if dump:
        os.makedirs(OUT_DIR, exist_ok=True)
    kwargs = {"dump_path": dump} if workload == "serve-d32" else {}
    m = RUN[workload](seed, seconds, spec, traced, **kwargs)
    out = {
        "attempted": m.attempted,
        "failed": m.failed,
        "problems": m.problems,
        "score": m.scores.get("full"),
        "env": environment(),
    }
    if traced:
        out["metrics"] = traced_metrics(workload, seed, m)
    else:
        out["metrics"], out["notes"] = timed_metrics(workload, m)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

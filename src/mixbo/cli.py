"""Command line front end.

Three subcommands:

``bench``
    Run the ablation ladder on built-in objectives and write a
    per-iteration ``traces.csv`` plus a ``scores.json`` summary.

``serve``
    Speak the ask/tell protocol over stdin/stdout as line-delimited
    JSON, one message per line. Messages are flat objects with a
    ``kind`` field: ``hello`` (carrying ``space`` and optional
    ``config`` documents) initializes the optimizer and is answered
    with ``ack``; ``suggest_request`` is answered with ``suggestions``
    (a ``points`` list); ``observe`` (with ``points`` and ``values``)
    is answered with ``ack``; ``best`` is answered with ``best`` (a
    ``point`` and a ``value``). Anything malformed or out of turn is
    answered with ``error`` (a ``message`` naming what was expected)
    and the loop keeps serving.

``run``
    Drive an external objective command: each evaluation pipes one
    point as JSON to the command's stdin and reads one float from its
    stdout. Failed evaluations are imputed rather than fatal.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from typing import IO

from . import bench as bench_mod
from .bench import ARMS, RANDOM_ARM, builtin_objectives, get_objective
from .optimizer import ConfigError, Optimizer, OptimizerConfig, ProtocolError, config_from_dict
from .space import SearchSpace, ValidationError, space_from_dict

MESSAGE_KINDS = ("hello", "suggest_request", "suggestions", "observe", "ack", "best", "error")


def write_message(stream: IO[str], kind: str, **fields) -> None:
    """Emit one wire message as a single JSON line and flush."""
    doc = {"kind": kind, **fields}
    stream.write(json.dumps(doc) + "\n")
    stream.flush()


def parse_message(line: str) -> dict:
    """Parse one wire line into a message dict.

    Raises ValueError with a driver-friendly message on anything that is
    not a JSON object with a string ``kind`` field.
    """
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("message must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str):
        raise ValueError('message must carry a string "kind" field')
    return doc


def serve(
    instream: IO[str],
    outstream: IO[str],
    space_doc: dict | None = None,
    config_doc: dict | None = None,
) -> int:
    """Serve the ask/tell protocol until the input stream ends.

    ``space_doc`` and ``config_doc`` act as defaults for ``hello``
    messages that omit them. Blank lines are ignored. Malformed or
    out-of-turn messages, and any other exception a request raises,
    produce ``error`` responses and never stop the loop, so a
    misbehaving driver cannot wedge the server.
    """
    opt: Optimizer | None = None
    for raw in instream:
        line = raw.strip()
        if not line:
            continue
        try:
            msg = parse_message(line)
        except ValueError as exc:
            write_message(outstream, "error", message=str(exc))
            continue
        kind = msg["kind"]
        if kind in ("suggest_request", "observe", "best") and opt is None:
            write_message(outstream, "error", message="expected hello first")
            continue
        try:
            if kind == "hello":
                sdoc = msg.get("space", space_doc)
                if sdoc is None:
                    write_message(
                        outstream, "error", message='hello needs a "space" document'
                    )
                    continue
                cdoc = msg.get("config", config_doc) or {}
                space = space_from_dict(sdoc)
                config = config_from_dict(cdoc)
                opt = Optimizer(space, config)
                write_message(outstream, "ack", message="ready")
            elif kind == "suggest_request":
                write_message(outstream, "suggestions", points=opt.suggest())
            elif kind == "observe":
                points = msg.get("points")
                values = msg.get("values")
                if not isinstance(points, list) or not isinstance(values, list):
                    raise ProtocolError('observe needs "points" and "values" lists')
                opt.observe(points, values)
                write_message(outstream, "ack", message="recorded")
            elif kind == "best":
                point, value = opt.best()
                # a non-finite best (every evaluation failed) crosses the
                # wire as null, keeping the reply strict JSON
                wire_value = value if math.isfinite(value) else None
                write_message(outstream, "best", point=point, value=wire_value)
            else:
                write_message(
                    outstream,
                    "error",
                    message=f"unknown kind {kind!r}; expected one of {list(MESSAGE_KINDS)}",
                )
        except Exception as exc:
            # any failure of one request, a MemoryError from a large
            # suggest included, answers that request and keeps the session
            write_message(outstream, "error", message=f"{type(exc).__name__}: {exc}")
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _load_json_file(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} file is not valid JSON: {exc}") from exc


def cmd_bench(args: argparse.Namespace) -> int:
    base = OptimizerConfig() if args.config is None else config_from_dict(
        _load_json_file(args.config, "config")
    )
    if args.objective:
        objectives = [get_objective(name) for name in args.objective]
    else:
        pool = builtin_objectives()
        if args.suite == "noiseless":
            objectives = [ob for ob in pool if ob.noise_std == 0.0]
        elif args.suite == "noisy":
            objectives = [ob for ob in pool if ob.noise_std > 0.0]
        else:
            objectives = pool
    arms = args.arm if args.arm else list(ARMS)
    seeds = [args.seed + i for i in range(args.seeds)]

    report, traces = bench_mod.run_ablation(seeds, objectives, base, arms)

    os.makedirs(args.out, exist_ok=True)
    traces_path = os.path.join(args.out, "traces.csv")
    scores_path = os.path.join(args.out, "scores.json")
    bench_mod.write_traces_csv(traces, traces_path)
    bench_mod.write_scores_json(report, scores_path)

    cols = [RANDOM_ARM, *arms]
    width = max(len(ob.name) for ob in objectives) + 2
    print("normalized scores (100 = optimum, 0 = random)")
    print("".join(["objective".ljust(width)] + [c.rjust(10) for c in cols]))
    for ob in objectives:
        row = [ob.name.ljust(width)]
        for c in cols:
            row.append(f"{report['scores'][c][ob.name]:10.1f}")
        print("".join(row))
    print("".join(["aggregate".ljust(width)] + [f"{report['aggregate'][c]:10.1f}" for c in cols]))
    imp = report.get("improvement_vs_baseline_pct", {})
    if imp:
        parts = [f"{a}: {v if v is not None else 'n/a'}" for a, v in imp.items()]
        print("improvement vs baseline (%): " + ", ".join(parts))
    if report["failures"]:
        print(f"{len(report['failures'])} run(s) failed; see scores.json", file=sys.stderr)
    print(f"wrote {traces_path} and {scores_path}")
    return 1 if report["failures"] else 0


def cmd_serve(args: argparse.Namespace) -> int:
    space_doc = _load_json_file(args.space, "space") if args.space else None
    config_doc = _load_json_file(args.config, "config") if args.config else None
    return serve(sys.stdin, sys.stdout, space_doc, config_doc)


def cmd_run(args: argparse.Namespace) -> int:
    space = space_from_dict(_load_json_file(args.space, "space"))
    config_doc = _load_json_file(args.config, "config") if args.config else {}
    config = config_from_dict(config_doc)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    opt = Optimizer(space, config)
    failures = 0
    for _ in range(config.max_iterations):
        points = opt.suggest()
        values = []
        for point in points:
            try:
                proc = subprocess.run(
                    args.cmd,
                    shell=True,
                    input=json.dumps(point),
                    capture_output=True,
                    text=True,
                    timeout=args.timeout,
                )
                if proc.returncode != 0:
                    raise ValueError(f"exit code {proc.returncode}")
                values.append(float(proc.stdout.strip().splitlines()[-1]))
            except Exception as exc:  # noqa: BLE001 - one bad eval must not kill the run
                failures += 1
                print(f"evaluation failed ({exc}); imputing", file=sys.stderr)
                values.append(math.nan)
        opt.observe(points, values)
    point, value = opt.best()
    result = {
        "best_point": point,
        "best_value": value if math.isfinite(value) else None,
        "iterations": config.max_iterations,
        "evaluations": len(opt.history),
        "failed_evaluations": failures,
    }
    text = json.dumps(result, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if not math.isfinite(value):
        print("no evaluation ever succeeded", file=sys.stderr)
        return 1
    return 0


def _checked(convert, ok, what: str):
    """argparse type: ``convert(text)``, which must satisfy ``ok``."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in its errors
    return parse


_AT_LEAST_ONE = _checked(int, lambda v: v >= 1, "at least 1")
_NONNEGATIVE = _checked(int, lambda v: v >= 0, "at least 0")
# the subprocess wait polls in milliseconds as a C int, so much longer
# timeouts fail every evaluation
_MAX_TIMEOUT_S = 1_000_000
_TIMEOUT = _checked(float, lambda v: 0 < v <= _MAX_TIMEOUT_S, f"in (0, {_MAX_TIMEOUT_S}] seconds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixbo", description="Mixed-variable trust-region Bayesian optimization."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="run the ablation benchmark")
    p_bench.add_argument("--suite", choices=("noiseless", "noisy", "all"), default="noiseless")
    p_bench.add_argument(
        "--objective", action="append", help="objective name (repeatable; overrides --suite)"
    )
    p_bench.add_argument("--arm", action="append", help=f"arm to run (repeatable; default all of {list(ARMS)})")
    p_bench.add_argument("--seeds", type=_AT_LEAST_ONE, default=10, help="number of paired seeds")
    p_bench.add_argument("--seed", type=_NONNEGATIVE, default=0, help="first seed")
    p_bench.add_argument("--config", help="path to a base config JSON")
    p_bench.add_argument("--out", default=".", help="output directory")
    p_bench.set_defaults(func=cmd_bench)

    p_serve = sub.add_parser("serve", help="speak the ask/tell protocol on stdio")
    p_serve.add_argument("--space", help="default space JSON for hello messages")
    p_serve.add_argument("--config", help="default config JSON for hello messages")
    p_serve.set_defaults(func=cmd_serve)

    p_run = sub.add_parser("run", help="optimize an external command")
    p_run.add_argument("--space", required=True, help="path to the space JSON")
    p_run.add_argument("--config", help="path to the config JSON")
    p_run.add_argument("--cmd", required=True, help="shell command; point JSON on stdin, value on stdout")
    p_run.add_argument("--seed", type=_NONNEGATIVE, help="override the config seed")
    p_run.add_argument("--timeout", type=_TIMEOUT, default=300.0, help="per-evaluation timeout in seconds")
    p_run.add_argument("--out", help="also write the result JSON here")
    p_run.set_defaults(func=cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, ConfigError, ValidationError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 1


if __name__ == "__main__":
    sys.exit(main())

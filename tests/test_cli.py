"""Tests for the CLI subcommands and the line-delimited wire protocol."""

import io
import json
import subprocess
import sys

import pytest

from mixbo.cli import main, parse_message, serve, write_message
from mixbo.optimizer import Optimizer
from mixbo.space import ParamSpec, SearchSpace

SPACE_DOC = {
    "params": [
        {"name": "x", "kind": "real", "lo": 0.0, "hi": 1.0},
        {"name": "n", "kind": "integer", "lo": 0, "hi": 5},
        {"name": "m", "kind": "categorical", "categories": ["a", "b"]},
    ]
}


def feed(lines, **kw):
    out = io.StringIO()
    code = serve(io.StringIO("".join(line + "\n" for line in lines)), out, **kw)
    replies = [json.loads(line) for line in out.getvalue().splitlines()]
    return code, replies


def hello_line(config=None):
    msg = {"kind": "hello", "space": SPACE_DOC}
    if config is not None:
        msg["config"] = config
    return json.dumps(msg)


# --- message plumbing ---------------------------------------------------


def test_parse_message_accepts_objects_with_kind():
    assert parse_message('{"kind": "best"}') == {"kind": "best"}
    for bad in ("not json", "[1, 2]", '{"no_kind": 1}', '{"kind": 5}'):
        with pytest.raises(ValueError):
            parse_message(bad)


def test_write_message_emits_one_json_line():
    out = io.StringIO()
    write_message(out, "ack", message="ready")
    text = out.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1
    assert json.loads(text) == {"kind": "ack", "message": "ready"}


# --- serve loop -----------------------------------------------------------


def test_hello_then_suggest_yields_valid_points():
    # a pre-scripted stream cannot answer suggestions, so the repeated
    # suggest_request lines also probe the out-of-turn error path; a
    # real interactive session is covered by test_serve_subprocess_session
    cfg = {"batch_size": 4, "max_iterations": 3, "seed": 1}
    lines = [hello_line(cfg)] + ['{"kind": "suggest_request"}'] * 3
    code, replies = feed(lines)
    assert code == 0
    assert [r["kind"] for r in replies] == ["ack", "suggestions", "error", "error"]
    space = SearchSpace(
        [
            ParamSpec("x", "real", lo=0.0, hi=1.0),
            ParamSpec("n", "integer", lo=0, hi=5),
            ParamSpec("m", "categorical", categories=("a", "b")),
        ]
    )
    pts = replies[1]["points"]
    assert len(pts) == 4
    for p in pts:
        space.validate(p)


def test_serve_requires_hello_first():
    code, replies = feed(
        ['{"kind": "suggest_request"}', '{"kind": "observe", "points": [], "values": []}', '{"kind": "best"}']
    )
    assert code == 0
    assert replies == [{"kind": "error", "message": "expected hello first"}] * 3


def test_hello_uses_preset_documents():
    code, replies = feed(
        ['{"kind": "hello"}', '{"kind": "suggest_request"}'],
        space_doc=SPACE_DOC,
        config_doc={"batch_size": 2, "seed": 0},
    )
    assert replies[0]["kind"] == "ack"
    assert replies[1]["kind"] == "suggestions"
    assert len(replies[1]["points"]) == 2


def test_hello_without_any_space_is_an_error():
    code, replies = feed(['{"kind": "hello"}'])
    assert replies[0]["kind"] == "error"
    assert "space" in replies[0]["message"]


def test_unknown_kind_lists_expectations():
    code, replies = feed([hello_line({"batch_size": 2}), '{"kind": "mystery"}'])
    assert replies[1]["kind"] == "error"
    assert "mystery" in replies[1]["message"]


def test_malformed_lines_never_stop_the_loop():
    import numpy as np

    rng = np.random.default_rng(0)
    junk = []
    alphabet = list('{}[]":,abcxyz0159 \t')
    for _ in range(500):
        n = int(rng.integers(1, 40))
        junk.append("".join(rng.choice(alphabet) for _ in range(n)))
    head = [ln for ln in junk[:250] if ln.strip()]
    tail = [ln for ln in junk[250:] if ln.strip()]
    lines = head + [hello_line({"batch_size": 2})] + tail + ['{"kind": "suggest_request"}']
    code, replies = feed(lines)
    assert code == 0
    # one reply per non-blank line, errors for all the junk, and the
    # session still works at the end
    assert len(replies) == len(head) + 1 + len(tail) + 1
    assert all(r["kind"] == "error" for r in replies[: len(head)])
    assert replies[len(head)]["kind"] == "ack"
    assert all(r["kind"] == "error" for r in replies[len(head) + 1 : -1])
    assert replies[-1]["kind"] == "suggestions"


def test_observe_validates_payload_shape():
    code, replies = feed(
        [
            hello_line({"batch_size": 2, "seed": 3}),
            '{"kind": "observe", "points": "nope", "values": [1.0]}',
        ]
    )
    assert replies[1]["kind"] == "error"


def test_serve_subprocess_session(tmp_path):
    """Scripted end-to-end session against the real process."""
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(SPACE_DOC))
    code = (
        "import json, subprocess, sys\n"
        "proc = subprocess.Popen(\n"
        "    [sys.executable, '-m', 'mixbo.cli', 'serve'],\n"
        "    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)\n"
        "def send(msg):\n"
        "    proc.stdin.write(json.dumps(msg) + '\\n'); proc.stdin.flush()\n"
        "    return json.loads(proc.stdout.readline())\n"
        "space = json.load(open(%r))\n"
        "r = send({'kind': 'hello', 'space': space,\n"
        "          'config': {'batch_size': 4, 'max_iterations': 4, 'seed': 0}})\n"
        "assert r['kind'] == 'ack', r\n"
        "pen = {'a': 0.0, 'b': 1.0}\n"
        "for it in range(4):\n"
        "    r = send({'kind': 'suggest_request'})\n"
        "    assert r['kind'] == 'suggestions', r\n"
        "    pts = r['points']\n"
        "    vals = [(p['x'] - 0.5) ** 2 + 0.1 * p['n'] + pen[p['m']] for p in pts]\n"
        "    r = send({'kind': 'observe', 'points': pts, 'values': vals})\n"
        "    assert r['kind'] == 'ack', r\n"
        "r = send({'kind': 'best'})\n"
        "assert r['kind'] == 'best' and isinstance(r['value'], float), r\n"
        "proc.stdin.close(); proc.wait(timeout=30)\n"
        "print('OK', r['value'])\n"
    ) % str(space_path)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("OK ")


def test_serve_keeps_suggesting_after_failed_evaluations():
    out = io.StringIO()

    def client():
        yield hello_line({"batch_size": 4, "seed": 0})
        for _ in range(8):  # 2 init rounds, then 6 model rounds
            yield '{"kind": "suggest_request"}'
            reply = json.loads(out.getvalue().splitlines()[-1])
            assert reply["kind"] == "suggestions", reply
            pts = reply["points"]
            values = [float("nan")] + [p["x"] + p["n"] for p in pts[1:]]
            yield json.dumps({"kind": "observe", "points": pts, "values": values})

    with pytest.warns(RuntimeWarning):
        assert serve(client(), out) == 0
    kinds = [json.loads(line)["kind"] for line in out.getvalue().splitlines()]
    assert kinds == ["ack"] + ["suggestions", "ack"] * 8


def test_serve_rejects_boolean_values_then_takes_numbers():
    out = io.StringIO()

    def client():
        yield hello_line({"batch_size": 2, "seed": 0})
        yield '{"kind": "suggest_request"}'
        pts = json.loads(out.getvalue().splitlines()[-1])["points"]
        yield json.dumps({"kind": "observe", "points": pts, "values": [True, False]})
        yield json.dumps({"kind": "observe", "points": pts, "values": [1.0, 0.0]})
        yield '{"kind": "best"}'

    assert serve(client(), out) == 0
    replies = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [r["kind"] for r in replies] == ["ack", "suggestions", "error", "ack", "best"]
    assert "booleans" in replies[2]["message"]
    assert replies[-1]["value"] == 0.0


def test_serve_rejects_numeric_string_values_then_takes_numbers():
    out = io.StringIO()

    def client():
        yield hello_line({"batch_size": 2, "seed": 0})
        yield '{"kind": "suggest_request"}'
        pts = json.loads(out.getvalue().splitlines()[-1])["points"]
        yield json.dumps({"kind": "observe", "points": pts, "values": ["0.25", "1e3"]})
        yield json.dumps({"kind": "observe", "points": pts, "values": [1.0, 0.5]})
        yield '{"kind": "best"}'

    assert serve(client(), out) == 0
    replies = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [r["kind"] for r in replies] == ["ack", "suggestions", "error", "ack", "best"]
    assert "strings" in replies[2]["message"]
    assert replies[-1]["value"] == 0.5


def test_serve_recovers_after_any_exception_in_suggest(monkeypatch):
    real_suggest = Optimizer.suggest
    calls = []

    def suggest_failing_once(self):
        calls.append(1)
        if len(calls) == 1:
            raise MemoryError("cannot allocate the candidate covariance")
        return real_suggest(self)

    monkeypatch.setattr(Optimizer, "suggest", suggest_failing_once)
    req = '{"kind": "suggest_request"}'
    code, replies = feed([hello_line({"batch_size": 2}), req, req])
    assert code == 0
    assert [r["kind"] for r in replies] == ["ack", "error", "suggestions"]
    assert replies[1]["message"].startswith("MemoryError")
    assert len(replies[2]["points"]) == 2


# --- bench subcommand -------------------------------------------------------


def test_bench_subcommand_writes_reports(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"batch_size": 4, "max_iterations": 3}))
    code = main(
        [
            "bench",
            "--objective",
            "two-basin",
            "--arm",
            "baseline",
            "--seeds",
            "2",
            "--config",
            str(cfg),
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "two-basin" in captured.out
    scores = json.loads((tmp_path / "scores.json").read_text())
    assert scores["scores"]["baseline"]["two-basin"] is not None
    assert (tmp_path / "traces.csv").read_text().startswith("objective,")


def test_bench_rejects_unknown_names(tmp_path):
    assert main(["bench", "--objective", "nope", "--out", str(tmp_path)]) == 1
    assert main(["bench", "--arm", "nope", "--seeds", "1", "--out", str(tmp_path)]) == 1


# --- run subcommand ----------------------------------------------------------


def test_run_subcommand_drives_external_command(tmp_path, capsys):
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(SPACE_DOC))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"batch_size": 2, "max_iterations": 2}))
    out_path = tmp_path / "result.json"
    scorer = (
        f"{sys.executable} -c \"import json,sys; p=json.load(sys.stdin); "
        f'print((p[\'x\'] - 0.25) ** 2 + p[\'n\'])"'
    )
    code = main(
        [
            "run",
            "--space",
            str(space_path),
            "--config",
            str(cfg_path),
            "--cmd",
            scorer,
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    result = json.loads(out_path.read_text())
    assert result["evaluations"] == 4
    assert result["failed_evaluations"] == 0
    assert result["best_value"] <= min(
        r["best_value"] for r in [result]
    )  # sanity: present and finite
    assert result["best_point"]["m"] in ("a", "b")


def test_run_subcommand_imputes_failures(tmp_path, capsys):
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(SPACE_DOC))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"batch_size": 2, "max_iterations": 1}))
    with pytest.warns(RuntimeWarning):
        code = main(
            [
                "run",
                "--space",
                str(space_path),
                "--config",
                str(cfg_path),
                "--cmd",
                "false",
            ]
        )
    # every evaluation failed: exit 1 and a non-finite best
    assert code == 1


def test_run_subcommand_survives_a_partly_failing_command(tmp_path, capsys):
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(SPACE_DOC))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"batch_size": 2, "max_iterations": 6, "seed": 0}))
    out_path = tmp_path / "result.json"
    # the command crashes on half of the space
    scorer = (
        f"{sys.executable} -c \"import json,sys; p=json.load(sys.stdin); "
        f"sys.exit(1) if p['m'] == 'b' else print(p['x'] + p['n'])\""
    )
    with pytest.warns(RuntimeWarning):
        code = main(
            ["run", "--space", str(space_path), "--config", str(cfg_path), "--cmd", scorer, "--out", str(out_path)]
        )
    assert code == 0, capsys.readouterr().err
    result = json.loads(out_path.read_text())
    assert result["evaluations"] == 12
    assert result["failed_evaluations"] > 0
    assert result["best_point"]["m"] == "a"


@pytest.mark.parametrize(
    "space_doc,config_doc",
    [
        (SPACE_DOC, {"batch_size": 2.5}),
        (SPACE_DOC, {"max_iterations": 1.5}),
        (SPACE_DOC, {"batch_size": 2, "max_iterations": 1, "seed": True}),
        (SPACE_DOC, {"batch_size": 2, "max_iterations": 1, "turbo": {"n_candidates": 5.5}}),
        ({"params": [{"name": "x", "kind": "real", "lo": "0", "hi": 1}]}, {"batch_size": 2, "max_iterations": 1}),
        ({"params": [{"name": "c", "kind": "categorical", "categories": "abc"}]}, {"batch_size": 2, "max_iterations": 1}),
        ({"params": [{"name": "n", "kind": "integer", "lo": 0, "hi": 10**400}]}, {"batch_size": 2, "max_iterations": 1}),
    ],
    ids=["batch_size", "max_iterations", "seed", "turbo", "lo", "categories", "huge-bound"],
)
def test_run_rejects_mistyped_documents_without_a_traceback(tmp_path, space_doc, config_doc):
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(space_doc))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config_doc))
    cmd = [sys.executable, "-m", "mixbo.cli", "run", "--space", str(space_path), "--config", str(cfg_path)]
    out = subprocess.run(cmd + ["--cmd", "echo 1"], capture_output=True, text=True, timeout=120)
    assert out.returncode == 1, out.stdout
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr, out.stderr


# --- argument handling ---------------------------------------------------------


def test_usage_errors_exit_two(tmp_path):
    assert main(["bogus-subcommand"]) == 2
    assert main([]) == 2
    # counts and the timeout are checked before any study or evaluation
    out = tmp_path / "out"
    for bad in (["--seeds", "0"], ["--seed", "-1"]):
        assert main(["bench", "--out", str(out), *bad]) == 2
    assert not out.exists()
    run = ["run", "--space", str(tmp_path / "nope.json"), "--cmd", "true"]
    for bad in (["--seed", "-1"], ["--timeout", "-1"], ["--timeout", "0"], ["--timeout", "nan"],
                ["--timeout", "2200000"], ["--timeout", "1e10"]):
        assert main([*run, *bad]) == 2
    # the longest timeout is accepted and the missing space file is reported
    assert main([*run, "--timeout", "1000000"]) == 1


def test_missing_files_exit_one(tmp_path):
    assert main(["serve", "--space", str(tmp_path / "nope.json")]) == 1
    assert (
        main(["run", "--space", str(tmp_path / "nope.json"), "--cmd", "true"]) == 1
    )

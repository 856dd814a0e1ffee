from __future__ import annotations

import json
import socket

import pytest

from morevqa import cli
from morevqa.cli import main
from morevqa.core import RunConfig
from morevqa.harness import load_dataset, run_eval


def _read(path):
    return path.read_bytes()


def test_eval_writes_results_and_reruns_identically(oracle_dir, tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    argv = [
        "eval",
        "--dataset", str(oracle_dir / "dataset.jsonl"),
        "--system", "morevqa",
        "--backend", f"mock:{oracle_dir / 'fixtures'}",
    ]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert _read(out_a / "results.jsonl") == _read(out_b / "results.jsonl")
    assert _read(out_a / "summary.json") == _read(out_b / "summary.json")
    assert _read(out_a / "traces.jsonl") == _read(out_b / "traces.jsonl")
    lines = (out_a / "results.jsonl").read_text().strip().split("\n")
    assert len(lines) == 30
    summary = json.loads((out_a / "summary.json").read_text())
    assert summary["accuracy"] == 1.0


def test_eval_single_stage_failures_exit_one(oracle_dir, tmp_path):
    rc = main(
        [
            "eval",
            "--dataset", str(oracle_dir / "dataset.jsonl"),
            "--system", "single_stage",
            "--backend", f"mock:{oracle_dir / 'fixtures'}",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["failure_rate"] > 0


def test_eval_unresolvable_backend_exit_two(oracle_dir, tmp_path):
    rc = main(
        [
            "eval",
            "--dataset", str(oracle_dir / "dataset.jsonl"),
            "--system", "morevqa",
            "--backend", f"mock:{tmp_path / 'nowhere'}",
        ]
    )
    assert rc == 2


@pytest.mark.parametrize("command", ["eval", "ablate"])
def test_empty_dataset_exit_two(oracle_dir, tmp_path, capsys, command):
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("", encoding="utf-8")
    argv = [command, "--dataset", str(dataset), "--backend", f"mock:{oracle_dir / 'fixtures'}"]
    if command == "eval":
        argv += ["--system", "morevqa"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: dataset is empty\n"


def test_replay_bad_recording_exit_two(oracle_dir, tmp_path, capsys):
    recording = tmp_path / "rec.jsonl"
    recording.write_text("{bad\n{}\n", encoding="utf-8")
    rc = main([
        "replay",
        "--dataset", str(oracle_dir / "dataset.jsonl"),
        "--system", "morevqa",
        "--recording", str(recording),
        "--fixtures", str(oracle_dir / "fixtures"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: recording {recording}: pair 1: bad request line")
    assert err.count("\n") == 1


def test_eval_bad_fixture_exit_two(oracle_dir, tmp_path, capsys):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    data = json.loads((oracle_dir / "fixtures" / "v000.json").read_text(encoding="utf-8"))
    data["fps"] = 0
    (fixtures / "v000.json").write_text(json.dumps(data), encoding="utf-8")
    rc = main([
        "eval",
        "--dataset", str(oracle_dir / "dataset.jsonl"),
        "--system", "morevqa",
        "--backend", f"mock:{fixtures}",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: fixture {fixtures / 'v000.json'}: ValueError: ")
    assert err.count("\n") == 1


def test_unknown_flag_exits_two(oracle_dir):
    with pytest.raises(SystemExit) as err:
        main(["eval", "--dataset", "x", "--system", "morevqa",
              "--backend", "mock:x", "--bogus-flag"])
    assert err.value.code == 2


def test_run_prints_trace_lines(oracle_bundle, oracle_dir, capsys):
    row = oracle_bundle.rows[0]
    argv = [
        "run",
        "--video", row["video_id"],
        "--question", row["question"],
        "--candidates", *row["candidates"],
        "--backend", f"mock:{oracle_dir / 'fixtures'}",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    correct = row["candidates"][row["answer_mc"]]
    assert f"answer: {row['answer_mc']}: {correct}" in out
    # stage order with program lines visible
    for fragment in ["trim(", "localize(", "subquestion("]:
        assert fragment in out
    assert out.index("-- stage event_parsing --") < out.index("-- stage grounding --")
    assert out.index("-- stage grounding --") < out.index("-- stage reasoning --")


def test_run_missing_video_exits_two(oracle_dir):
    rc = main(
        [
            "run",
            "--video", "missing",
            "--question", "why?",
            "--backend", f"mock:{oracle_dir / 'fixtures'}",
        ]
    )
    assert rc == 2


def test_ablate_writes_csv(oracle_dir, tmp_path, capsys):
    rc = main(
        [
            "ablate",
            "--dataset", str(oracle_dir / "dataset.jsonl"),
            "--backend", f"mock:{oracle_dir / 'fixtures'}",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    text = (tmp_path / "ablation.csv").read_text()
    assert text.startswith("m1,m2,m3,accuracy\n")
    rows = text.strip().split("\n")[1:]
    assert len(rows) == 4
    assert rows[-1].startswith("1,1,1,")


def test_stats_command(oracle_dir, tmp_path, capsys):
    out = tmp_path / "out"
    main(
        [
            "eval",
            "--dataset", str(oracle_dir / "dataset.jsonl"),
            "--system", "morevqa",
            "--backend", f"mock:{oracle_dir / 'fixtures'}",
            "--out", str(out),
        ]
    )
    capsys.readouterr()
    rc = main(
        ["stats", "--traces", str(out / "traces.jsonl"),
         "--dataset", str(oracle_dir / "dataset.jsonl")]
    )
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert abs(sum(stats["qa_type"].values()) - 1.0) < 1e-12
    assert stats["agreement"]["diagonal"] == 1.0


_GOOD_MEMORY = {"qa_type": "why", "conjunction": "none"}


@pytest.mark.parametrize("content, complaint", [
    (b"\xff{}", "codec can't decode"),
    (b"{not json", "Expecting property name"),
    (b"[1]", "trace is not a JSON object"),
    (json.dumps({"stage_records": [{"memory_after": [1]}]}).encode(),
     "memory_after is not an object"),
    (json.dumps({"stage_records": [{"memory_after": {**_GOOD_MEMORY, "qa_type": 3}}]}).encode(),
     "must be strings"),
    (json.dumps({"stage_records": [{"memory_after": {**_GOOD_MEMORY, "conjunction": None}}]})
     .encode(), "must be strings"),
    (json.dumps({"stage_records": "event_parsing"}).encode(), "stage_records is not a list"),
], ids=["not-utf8", "not-json", "json-array", "memory-list", "qa-type-int", "conjunction-null",
        "records-string"])
def test_stats_refuses_a_malformed_trace_file(tmp_path, capsys, content, complaint):
    good = {"stage_records": [{"memory_after": _GOOD_MEMORY}]}
    path = tmp_path / "traces.jsonl"
    path.write_bytes(json.dumps(good).encode() + b"\n" + content + b"\n")
    assert main(["stats", "--traces", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}:2: ") and complaint in captured.err
    assert captured.err.count("\n") == 1


def _stats_over(tmp_path, traces):
    path = tmp_path / "traces.jsonl"
    path.write_text("".join(json.dumps(trace) + "\n" for trace in traces), encoding="utf-8")
    return main(["stats", "--traces", str(path)])


_EVENT_PARSING_FAILED = {
    "system": "morevqa", "video_id": "v001", "question": "why?", "answer": "",
    "mc_index": None, "grounded_window": None, "grounded_window_s": None,
    "stage_records": [],
    "failure": {"stage": "event_parsing", "kind": "parse_error", "message": "bad program"},
}


def test_stats_leaves_out_a_trace_without_stage_records(oracle_dir, tmp_path, capsys):
    out = tmp_path / "out"
    main(["eval", "--dataset", str(oracle_dir / "dataset.jsonl"), "--system", "morevqa",
          "--backend", f"mock:{oracle_dir / 'fixtures'}", "--out", str(out)])
    good = json.loads((out / "traces.jsonl").read_text(encoding="utf-8").split("\n")[0])
    capsys.readouterr()
    assert _stats_over(tmp_path, [good, _EVENT_PARSING_FAILED]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["count"] == 2 and stats["unparsed"] == 1
    assert sum(stats["qa_type"].values()) == 1.0


def test_stats_needs_one_parsed_trace(tmp_path, capsys):
    assert _stats_over(tmp_path, [_EVENT_PARSING_FAILED, {"system": "jcef"}]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {tmp_path / 'traces.jsonl'}: ")
    assert captured.err.count("\n") == 1


def _morevqa_trace(oracle_bundle, oracle_dir, mock_backend, mask):
    item = load_dataset(oracle_dir / "dataset.jsonl")[0]
    results, _ = run_eval([item], "morevqa", mock_backend, oracle_bundle.fixtures,
                          run_config=RunConfig(stage_mask=mask))
    return results[0].trace


def test_stats_leaves_out_a_masked_event_parser(oracle_bundle, oracle_dir, mock_backend,
                                                tmp_path, capsys):
    """A masked-off event parser still leaves a record, with a null
    `parsed_program` and the default `qa_type`; it parsed nothing."""
    masked = _morevqa_trace(oracle_bundle, oracle_dir, mock_backend, (False, False, False))
    assert masked["stage_records"][0]["parsed_program"] is None
    parsed = _morevqa_trace(oracle_bundle, oracle_dir, mock_backend, (True, True, True))
    assert _stats_over(tmp_path, [masked, parsed]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["count"] == 2 and stats["unparsed"] == 1
    assert stats["qa_type"] == {parsed["stage_records"][0]["memory_after"]["qa_type"]: 1.0}

    assert _stats_over(tmp_path, [masked, masked]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / 'traces.jsonl'}: no trace holds a parsed question\n"


@pytest.mark.parametrize("case", ["five-items", "no-qtype"])
def test_stats_refuses_a_dataset_that_does_not_label_every_trace(oracle_dir, tmp_path, capsys,
                                                                 case):
    out = tmp_path / "out"
    assert main(["eval", "--dataset", str(oracle_dir / "dataset.jsonl"), "--system", "morevqa",
                 "--backend", f"mock:{oracle_dir / 'fixtures'}", "--out", str(out)]) == 0
    capsys.readouterr()
    traces = out / "traces.jsonl"
    lines = (oracle_dir / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
    dataset = tmp_path / "dataset.jsonl"
    if case == "five-items":
        lines = lines[:5]
        complaint = f"{dataset}: 5 items, 30 traces in {traces}"
    else:
        row = json.loads(lines[2])
        del row["qtype"]
        lines[2] = json.dumps(row)
        complaint = f"{dataset}: item 3 has no qtype"
    dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["stats", "--traces", str(traces), "--dataset", str(dataset)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {complaint}\n"


@pytest.mark.parametrize("command, address", [
    ("serve-mock", "nonsense"),
    ("serve-mock", "127.0.0.1:99999"),  # past the last port
    ("eval", "127.0.0.1:\u00b2"),  # a digit to str.isdigit, not to int()
    ("eval", "127.0.0.1:99999"),  # not port 99999 - 65536
], ids=["listen-no-port", "listen-port-range", "remote-superscript", "remote-port-range"])
def test_bad_address_exits_two(oracle_dir, capsys, command, address):
    fixtures = str(oracle_dir / "fixtures")
    if command == "serve-mock":
        argv = ["serve-mock", "--fixtures", fixtures, "--listen", address]
    else:
        argv = ["eval", "--dataset", str(oracle_dir / "dataset.jsonl"), "--system", "morevqa",
                "--backend", f"remote:{address}", "--fixtures", fixtures]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: address must be HOST:PORT with a port in 0-65535, got {address!r}\n"
    )


def test_record_then_replay_cli(oracle_dir, tmp_path):
    recording = tmp_path / "rec.jsonl"
    out_live = tmp_path / "live"
    out_replay = tmp_path / "replay"
    argv = [
        "eval",
        "--dataset", str(oracle_dir / "dataset.jsonl"),
        "--system", "morevqa",
    ]
    assert main(argv + [
        "--backend", f"mock:{oracle_dir / 'fixtures'}",
        "--record", str(recording),
        "--out", str(out_live),
    ]) == 0
    assert main([
        "replay",
        "--dataset", str(oracle_dir / "dataset.jsonl"),
        "--system", "morevqa",
        "--recording", str(recording),
        "--fixtures", str(oracle_dir / "fixtures"),
        "--out", str(out_replay),
    ]) == 0
    assert _read(out_live / "results.jsonl") == _read(out_replay / "results.jsonl")


def test_record_file_closed_when_eval_raises(oracle_dir, tmp_path, monkeypatch):
    closed = []
    close = cli.RecordingBackend.close
    monkeypatch.setattr(cli.RecordingBackend, "close",
                        lambda self: (closed.append(self.path), close(self)))

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_eval", boom)
    recording = tmp_path / "rec.jsonl"
    with pytest.raises(RuntimeError):
        main([
            "eval",
            "--dataset", str(oracle_dir / "dataset.jsonl"),
            "--system", "morevqa",
            "--backend", f"mock:{oracle_dir / 'fixtures'}",
            "--record", str(recording),
        ])
    assert closed == [recording]


@pytest.mark.parametrize("record", [False, True], ids=["plain", "record"])
def test_eval_against_a_closed_port_exits_two(oracle_dir, tmp_path, capsys, record):
    """The liveness probe reaches the client under `--record` too, and it is
    never recorded: an unreachable server is fatal, not 30 failed items whose
    transport errors a replay would serve as answers."""
    recording = tmp_path / "rec.jsonl"
    with socket.socket() as closed:
        closed.bind(("127.0.0.1", 0))  # bound but not listening: connections are refused
        argv = [
            "eval",
            "--dataset", str(oracle_dir / "dataset.jsonl"),
            "--system", "morevqa",
            "--backend", f"remote:127.0.0.1:{closed.getsockname()[1]}",
            "--fixtures", str(oracle_dir / "fixtures"),
        ]
        rc = main(argv + (["--record", str(recording)] if record else []))
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: transport:")
    if record:
        assert recording.read_bytes() == b""


def test_config_file_and_flag_override(oracle_dir, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "n_context_frames=8\nstage_mask=1,1,1\nworkers=1\nfps_caption=1.0\n",
        encoding="utf-8",
    )
    rc = main(
        [
            "eval",
            "--dataset", str(oracle_dir / "dataset.jsonl"),
            "--system", "morevqa",
            "--backend", f"mock:{oracle_dir / 'fixtures'}",
            "--config", str(config),
            "--workers", "2",
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["items"] == 30


def test_config_keys_feed_their_config(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("fps_caption=2.0\nn_context_frames=8\nworkers=3\n", encoding="utf-8")
    run_config, jcef_config, workers = cli._build_configs(str(config))
    assert jcef_config.fps_caption == 2.0
    assert run_config.n_context_frames == 8
    assert workers == 3


@pytest.mark.parametrize("line", ["seed=0", "decode_temperature=0.0"])
def test_config_keys_that_nothing_reads_are_unknown(tmp_path, line):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(cli.CliError, match="unknown config key"):
        cli._build_configs(str(config))


@pytest.mark.parametrize("command, line, flags, message", [
    ("eval", "definitely_not_a_key=1", [], "unknown config key 'definitely_not_a_key'"),
    ("eval", "workers=0", [], "workers must be at least 1, got 0"),
    ("eval", "workers=2", ["--workers", "-2"], "workers must be at least 1, got -2"),
    ("ablate", "workers=1", ["--workers", "0"], "workers must be at least 1, got 0"),
    ("eval", "workers=abc", [], "cannot read int from 'abc'"),
    ("eval", "n_context_frames=1.5", [], "cannot read int from '1.5'"),
], ids=["unknown-key", "config-workers-0", "flag-workers-minus-2", "ablate-flag-workers-0",
        "config-workers-abc", "config-int-field-1.5"])
def test_bad_config_or_workers_is_fatal(oracle_dir, tmp_path, capsys, command, line, flags,
                                        message):
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    system = ["--system", "morevqa"] if command == "eval" else []
    rc = main(
        [
            command,
            "--dataset", str(oracle_dir / "dataset.jsonl"),
            *system,
            "--backend", f"mock:{oracle_dir / 'fixtures'}",
            "--config", str(config),
            *flags,
        ]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_lenient_eval_keeps_stdout_json(oracle_dir, tmp_path, capsys):
    rows = (oracle_dir / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n".join(rows[:3] + ["{not json"]) + "\n", encoding="utf-8")
    rc = main([
        "eval",
        "--dataset", str(dataset),
        "--system", "morevqa",
        "--backend", f"mock:{oracle_dir / 'fixtures'}",
        "--lenient",
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["items"] == 3
    assert captured.err.startswith("skipping malformed dataset line: line 4: ")
    assert captured.err.count("\n") == 1

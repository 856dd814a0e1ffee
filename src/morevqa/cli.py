"""Operator entry points: eval runs, single-question traces, ablations,
statistics, replay, and serving the mock backend."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from .core import EvalItem, JcefConfig, QAItem, RunConfig, Settings
from .harness import (
    SYSTEMS,
    BackendUnreachable,
    DatasetError,
    ablation_csv,
    load_dataset,
    qtype_stats,
    read_traces,
    run_ablation,
    run_eval,
    trace_qtype,
)
from .pipeline import run_morevqa
from .server import parse_listen_address, start_server
from .tools import (
    FixtureError,
    MockBackend,
    RecordingBackend,
    RecordingError,
    RemoteBackend,
    ReplayBackend,
    ToolSession,
    load_corpus,
)

EXIT_OK = 0
EXIT_ITEM_FAILURES = 1
EXIT_FATAL = 2


class CliError(Exception):
    pass


# what `main` and `scripts/run_experiments.py` print as one `error:` line, exit 2
FATAL_ERRORS = (CliError, BackendUnreachable, OSError, DatasetError, FixtureError, RecordingError)


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError(f"{path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def _coerce(text: str, kind: type):
    if kind is bool:
        lowered = text.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise CliError(f"cannot read boolean from {text!r}")
    try:
        return kind(text)
    except ValueError:
        raise CliError(f"cannot read {kind.__name__} from {text!r}") from None


def _build_configs(config_path: str | None) -> tuple[RunConfig, JcefConfig, int]:
    """Config file keys mirror the RunConfig/JcefConfig fields."""
    run_config = RunConfig()
    jcef_config = JcefConfig()
    workers = 1
    if config_path is None:
        return run_config, jcef_config, workers
    values = _parse_config_file(config_path)
    run_fields = {f.name for f in fields(RunConfig)}
    jcef_fields = {f.name for f in fields(JcefConfig)}
    for key, raw in values.items():
        if key == "workers":
            workers = _coerce(raw, int)
        elif key == "stage_mask":
            bits = [b.strip() for b in raw.split(",")]
            if len(bits) != 3:
                raise CliError("stage_mask must be three comma-separated flags")
            run_config = replace(
                run_config, stage_mask=tuple(_coerce(b, bool) for b in bits)
            )
        elif key in run_fields:
            hint = type(getattr(run_config, key))
            run_config = replace(run_config, **{key: _coerce(raw, hint)})
        elif key in jcef_fields:
            hint = type(getattr(jcef_config, key))
            jcef_config = replace(jcef_config, **{key: _coerce(raw, hint)})
        else:
            raise CliError(f"unknown config key {key!r}")
    return run_config, jcef_config, workers


def resolve_workers(flag: int | None, configured: int) -> int:
    """`--workers` when given, else the config file's value; at least 1."""
    workers = configured if flag is None else flag
    if workers < 1:
        raise CliError(f"workers must be at least 1, got {workers}")
    return workers


def _address(text: str) -> tuple[str, int]:
    try:
        return parse_listen_address(text)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def resolve_backend(spec: str, fixtures_dir: str | None):
    """Backend spec is mock:DIR, remote:HOST:PORT, or replay:FILE."""
    kind, _, rest = spec.partition(":")
    if kind == "mock":
        if not rest:
            raise CliError("mock backend needs a fixtures directory: mock:DIR")
        corpus = load_corpus(rest)
        if not corpus:
            raise CliError(f"no fixtures found in {rest}")
        return MockBackend(corpus), corpus
    if kind == "remote":
        host, port = _address(rest)
        corpus = load_corpus(fixtures_dir) if fixtures_dir else {}
        return RemoteBackend(host, port), corpus
    if kind == "replay":
        if not rest:
            raise CliError("replay backend needs a recording file: replay:FILE")
        if not Path(rest).exists():
            raise CliError(f"recording {rest} does not exist")
        corpus = load_corpus(fixtures_dir) if fixtures_dir else {}
        return ReplayBackend(rest), corpus
    raise CliError(f"unknown backend spec {spec!r}")


def _require_fixtures(corpus, system: str) -> None:
    if SYSTEMS[system].needs_video and not corpus:
        raise CliError(
            "this backend does not carry video metadata; pass --fixtures DIR"
        )


def _load_items(args: argparse.Namespace) -> list[EvalItem]:
    """The `--dataset` items; an empty dataset is a CliError."""
    items = load_dataset(args.dataset, lenient=args.lenient)
    if not items:
        raise CliError("dataset is empty")
    return items


def _cmd_eval(args: argparse.Namespace) -> int:
    run_config, jcef_config, workers = _build_configs(args.config)
    workers = resolve_workers(args.workers, workers)
    backend, corpus = resolve_backend(args.backend, args.fixtures)
    _require_fixtures(corpus, args.system)
    items = _load_items(args)
    recording = None
    if args.record:
        recording = RecordingBackend(backend, args.record)
        backend = recording
    try:
        results, summary = run_eval(
            items,
            args.system,
            backend,
            corpus,
            run_config=run_config,
            jcef_config=jcef_config,
            out_dir=args.out,
            workers=workers,
            dataset_dir=Path(args.dataset).parent,
        )
    finally:
        if recording is not None:
            recording.close()
    print(json.dumps(summary, indent=2))
    failures = sum(1 for r in results if r.failure)
    return EXIT_ITEM_FAILURES if failures else EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    run_config, _, _ = _build_configs(args.config)
    backend, corpus = resolve_backend(args.backend, args.fixtures)
    if args.video not in corpus:
        raise CliError(f"video {args.video!r} not found in the fixture corpus")
    video = corpus[args.video].video_meta()
    candidates = tuple(args.candidates) if args.candidates else None
    item = EvalItem(args.video, QAItem(question=args.question, candidates=candidates))
    outcome = run_morevqa(item, video, ToolSession(backend), Settings(run_config))
    if outcome.failure:
        print(f"failure: {outcome.failure}")
        return EXIT_ITEM_FAILURES
    if outcome.mc_index is not None:
        print(f"answer: {outcome.mc_index}: {outcome.answer}")
    else:
        print(f"answer: {outcome.answer}")
    if outcome.pred_window_s is not None:
        start_s, end_s = outcome.pred_window_s
        print(
            f"grounded frames: {outcome.trace['grounded_window']}"
            f" ({start_s:.1f}s..{end_s:.1f}s)"
        )
    for record in outcome.trace["stage_records"]:
        print(f"-- stage {record['stage_name']} --")
        if record["emitted_program"] and record["stage_name"] != "prediction":
            print("program:")
            for line in record["emitted_program"].split("\n"):
                print(f"  {line}")
        print(f"tool calls: {len(record['tool_calls'])}")
    return EXIT_OK


def _cmd_ablate(args: argparse.Namespace) -> int:
    run_config, _, workers = _build_configs(args.config)
    workers = resolve_workers(args.workers, workers)
    backend, corpus = resolve_backend(args.backend, args.fixtures)
    _require_fixtures(corpus, "morevqa")
    items = _load_items(args)
    out_path = Path(args.out) / "ablation.csv" if args.out else None
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
    rows = run_ablation(
        items, backend, corpus, run_config=run_config, out_path=out_path, workers=workers
    )
    print(ablation_csv(rows), end="")
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    path = args.traces
    try:
        traces = read_traces(path)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    for lineno, trace in enumerate(traces, start=1):
        try:
            trace_qtype(trace)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: {exc}") from None
    labels = None
    if args.dataset:
        labels = [i.qtype_label for i in load_dataset(args.dataset)]
        if len(labels) != len(traces):
            raise CliError(f"{args.dataset}: {len(labels)} items, {len(traces)} traces in {path}")
        if None in labels:
            raise CliError(f"{args.dataset}: item {labels.index(None) + 1} has no qtype")
    try:
        stats = qtype_stats(traces, labels)
    except ValueError as exc:  # no trace at all, or none that was parsed
        raise CliError(f"{path}: {exc}") from None
    print(json.dumps(stats, indent=2))
    return EXIT_OK


def _cmd_replay(args: argparse.Namespace) -> int:
    args.backend = f"replay:{args.recording}"
    args.record = None
    return _cmd_eval(args)


def _cmd_serve_mock(args: argparse.Namespace) -> int:
    host, port = _address(args.listen)
    corpus = load_corpus(args.fixtures)
    if not corpus:
        raise CliError(f"no fixtures found in {args.fixtures}")
    server = start_server(MockBackend(corpus), host, port)
    bound_host, bound_port = server.server_address[:2]
    print(f"serving {len(corpus)} fixtures on {bound_host}:{bound_port}")
    try:
        import threading

        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="morevqa")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_eval_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", required=True)
        p.add_argument("--config")
        p.add_argument("--out")
        p.add_argument("--fixtures")
        p.add_argument("--lenient", action="store_true")
        p.add_argument(
            "--workers", type=int,
            help="threads that overlap tool waits (default 1); each claims the next"
            " item, and results keep dataset order",
        )

    p_eval = sub.add_parser("eval", help="evaluate one system over a dataset")
    common_eval_flags(p_eval)
    p_eval.add_argument("--system", required=True, choices=SYSTEMS)
    p_eval.add_argument("--backend", required=True)
    p_eval.add_argument("--record", help="record every distinct tool call to this file")
    p_eval.set_defaults(func=_cmd_eval)

    p_run = sub.add_parser("run", help="run one question with a full trace")
    p_run.add_argument("--video", required=True)
    p_run.add_argument("--question", required=True)
    p_run.add_argument("--candidates", nargs="*")
    p_run.add_argument("--backend", required=True)
    p_run.add_argument("--config")
    p_run.add_argument("--fixtures")
    p_run.set_defaults(func=_cmd_run)

    p_ablate = sub.add_parser("ablate", help="run the stage ablation grid")
    common_eval_flags(p_ablate)
    p_ablate.add_argument("--backend", required=True)
    p_ablate.set_defaults(func=_cmd_ablate)

    p_stats = sub.add_parser("stats", help="question-type statistics from a traces.jsonl")
    p_stats.add_argument("--traces", required=True)
    p_stats.add_argument("--dataset")
    p_stats.set_defaults(func=_cmd_stats)

    p_replay = sub.add_parser("replay", help="re-evaluate against a recording")
    common_eval_flags(p_replay)
    p_replay.add_argument("--recording", required=True)
    p_replay.add_argument("--system", required=True, choices=SYSTEMS)
    p_replay.set_defaults(func=_cmd_replay)

    p_serve = sub.add_parser("serve-mock", help="serve fixtures over the wire protocol")
    p_serve.add_argument("--fixtures", required=True)
    p_serve.add_argument("--listen", default="127.0.0.1:7385")
    p_serve.set_defaults(func=_cmd_serve_mock)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FATAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())

"""Spans recorded from outside the program, around the calls into each layer.

The tracer replaces a function everywhere it is bound inside the `morevqa`
package (so `morevqa.pipeline.parse` is wrapped as well as
`morevqa.lang.parse`), patches class methods on their class, and patches
`dispatch` on backend instances the benchmark builds. `uninstall` puts every
original back, so untraced passes run the unmodified program.

A span is `[name, start, end, parent, item]`; `parent` indexes the span list
of the same thread and `item` is the item id set by the enclosing
`harness.run_item`. Spans stay in memory until `collect`, which folds them
into per-name totals. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, dotted attribute, span name); the function or method is timed
# wherever it is looked up.
TARGETS = (
    ("morevqa.pipeline", "run_event_parsing", "pipeline.event_parsing"),
    ("morevqa.pipeline", "run_grounding", "pipeline.grounding"),
    ("morevqa.pipeline", "run_reasoning", "pipeline.reasoning"),
    ("morevqa.pipeline", "build_context", "pipeline.context"),
    ("morevqa.pipeline", "final_predict", "pipeline.predict"),
    ("morevqa.lang", "parse", "lang.parse"),
    ("morevqa.lang", "render", "lang.render"),
    ("morevqa.lang", "interpret", "lang.interpret"),
    ("morevqa.planner", "rule_plan", "planner.rule_plan"),
    ("morevqa.prompts", "build_planner_prompt", "prompts.build"),
    ("morevqa.prompts", "build_predict_prompt", "prompts.build"),
    ("morevqa.prompts", "build_single_stage_prompt", "prompts.build"),
    ("morevqa.prompts", "parse_planner_prompt", "prompts.parse"),
    ("morevqa.prompts", "parse_predict_prompt", "prompts.parse"),
    ("morevqa.core", "MemoryState.to_json_dict", "core.memory_snapshot"),
    ("morevqa.tools", "ToolSession.dispatch", "tools.session"),
    ("morevqa.tools", "RecordingBackend.dispatch", "tools.record"),
    ("morevqa.tools", "ReplayBackend.__init__", "tools.replay_load"),
    ("morevqa.baselines", "run_jcef", "baselines.jcef"),
    ("morevqa.baselines", "run_llm_only", "baselines.llm_only"),
    ("morevqa.baselines", "run_single_stage", "baselines.single_stage"),
    ("morevqa.harness", "run_item", "harness.item"),
    ("morevqa.corpus", "build_oracle_corpus", "corpus.build"),
)


def is_probe(req) -> bool:
    """The liveness probe `run_eval` sends before evaluating on a
    RemoteBackend: a caption request with no video id."""
    return req.method == "caption" and req.video_id is None


def request_key(req) -> tuple:
    return (req.method, req.video_id, req.frame_id,
            json.dumps(req.args, sort_keys=True, separators=(",", ":")))


class Counted:
    """Counts the calls that reach `backend.dispatch`, liveness probes apart."""

    def __init__(self, backend) -> None:
        self.calls = 0
        self.probes = 0
        lock = threading.Lock()
        inner = backend.dispatch

        def dispatch(req):
            with lock:
                if is_probe(req):
                    self.probes += 1
                else:
                    self.calls += 1
            return inner(req)

        backend.dispatch = dispatch


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._lists: list[list[list]] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self.missing: list[str] = []
        # name -> [count, total_ms, self_ms] over every collected span
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        # plain counters bumped by the backend wrappers
        self.counts: dict[str, float] = defaultdict(float)
        self._seen_keys: set[tuple] = set()
        self.last_spans: list[list] = []

    # --- recording ---

    def _state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack, local.item = [], [], None
            with self._lock:
                self._lists.append(local.spans)
            return local.spans, local.stack

    def _timed(self, name: str, fn, args, kwargs, item=None):
        spans, stack = self._state()
        if item is not None:
            outer_item, self._local.item = self._local.item, item
        rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self._local.item]
        stack.append(len(spans))
        spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            stack.pop()
            if item is not None:
                self._local.item = outer_item

    def _wrapper(self, name: str, fn):
        if name == "harness.item":
            # run_item(system, item, ...): tag every span under it
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                item = f"{args[0]}:{getattr(args[1], 'video_id', '?')}" if len(args) > 1 else "?"
                return self._timed(name, fn, args, kwargs, item)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self._timed(name, fn, args, kwargs)
        return traced

    # --- patching ---

    def _patch(self, owner, attr: str, value) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; a target that no longer exists is reported
        in `missing` and skipped."""
        self.missing = []
        packages = [m for n, m in list(sys.modules.items())
                    if m is not None and (n == "morevqa" or n.startswith("morevqa."))]
        for module_name, dotted, name in TARGETS:
            owner = sys.modules.get(module_name)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{dotted}")
                continue
            wrapper = self._wrapper(name, original)
            if path:
                self._patch(owner, attr, wrapper)
                continue
            for module in packages:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def wrap_backend(self, backend, prefix: str, track_repeats: bool = False,
                     wire: bool = False) -> None:
        """Time `backend.dispatch` per method as `<prefix>.<method>` spans
        (`<prefix>.probe` for the liveness probe)."""
        inner = backend.dispatch
        counts = self.counts

        def dispatch(req):
            probe = is_probe(req)
            name = f"{prefix}.probe" if probe else f"{prefix}.{req.method}"
            resp = self._timed(name, inner, (req,), {})
            if probe:
                return resp
            if track_repeats:
                key = request_key(req)
                with self._lock:
                    if key in self._seen_keys:
                        counts["repeats"] += 1
                    else:
                        self._seen_keys.add(key)
            if wire:
                size = (len(json.dumps(req.to_json_dict())) + 1
                        + len(json.dumps(resp.to_json_dict())) + 1)
                with self._lock:
                    counts["wire_bytes"] += size
            return resp

        self._patch(backend, "dispatch", dispatch)

    def uninstall(self) -> None:
        for owner, attr, value, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._patches = []

    # --- aggregation ---

    def collect(self) -> None:
        """Fold recorded spans into `totals` and start a fresh pass. Call it
        only while no span is open."""
        with self._lock:
            lists = [list(spans) for spans in self._lists]
            for spans in self._lists:
                spans.clear()
            self._seen_keys.clear()
        if any(lists):
            self.last_spans = []
        for thread, spans in enumerate(lists):
            covered = [0.0] * len(spans)
            for name, start, end, parent, item in spans:
                if parent >= 0:
                    covered[parent] += end - start
            for idx, (name, start, end, parent, item) in enumerate(spans):
                total = self.totals[name]
                total[0] += 1
                total[1] += (end - start) * 1000.0
                total[2] += (end - start - covered[idx]) * 1000.0
                self.last_spans.append([thread, idx, name, start, end, parent, item])

    def take(self) -> tuple[dict[str, list[float]], dict[str, float]]:
        """Collect, then hand over and clear the totals and counters."""
        self.collect()
        totals, counts = dict(self.totals), dict(self.counts)
        self.totals.clear()
        self.counts.clear()
        return totals, counts

    def reset(self) -> None:
        """Drop everything recorded so far (used in a forked child)."""
        with self._lock:
            for spans in self._lists:
                spans.clear()
            self._seen_keys.clear()
        self.totals.clear()
        self.counts.clear()

    def write_spans(self, path: Path) -> None:
        """Write the spans of the last collected pass as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for thread, idx, name, start, end, parent, item in self.last_spans:
                fh.write(json.dumps({
                    "thread": thread, "span": idx, "name": name,
                    "start_ms": start * 1000.0, "end_ms": end * 1000.0,
                    "parent": parent, "item": item,
                }) + "\n")

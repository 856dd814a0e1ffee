"""Multi-stage modular reasoning engine for video question answering."""

from .core import (
    EvalItem,
    FrameWindow,
    JcefConfig,
    MemoryState,
    Outcome,
    QAItem,
    QAType,
    RunConfig,
    Settings,
    TemporalConjunction,
    TemporalRegion,
    VideoMeta,
    uniform_sample,
)
from .baselines import run_jcef, run_llm_only, run_single_stage
from .pipeline import (
    LlmBackedPlanner,
    RuleBasedPlanner,
    apply_conjunction,
    apply_trim,
    build_context,
    run_morevqa,
)
from .tools import (
    MockBackend,
    RecordingBackend,
    RemoteBackend,
    ReplayBackend,
    ToolRequest,
    ToolResponse,
    ToolSession,
    WorldFixture,
    load_corpus,
)

__version__ = "0.1.0"

__all__ = [
    "EvalItem",
    "FrameWindow",
    "JcefConfig",
    "LlmBackedPlanner",
    "MemoryState",
    "MockBackend",
    "Outcome",
    "QAItem",
    "QAType",
    "RecordingBackend",
    "RemoteBackend",
    "ReplayBackend",
    "RuleBasedPlanner",
    "RunConfig",
    "Settings",
    "TemporalConjunction",
    "TemporalRegion",
    "ToolRequest",
    "ToolResponse",
    "ToolSession",
    "VideoMeta",
    "WorldFixture",
    "apply_conjunction",
    "apply_trim",
    "build_context",
    "load_corpus",
    "run_jcef",
    "run_llm_only",
    "run_morevqa",
    "run_single_stage",
    "uniform_sample",
]

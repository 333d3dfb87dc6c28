"""Generation configuration shared across the pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Config:
    coverage: str = "c1"  # c0 or c1
    max_depth: int = 256
    ptr_array_size: int = 10
    solver: str = "builtin"  # builtin or smtlib-out
    budget_ms: int = 60000  # per-function wall-clock deadline
    budget_nodes: int = 10000  # per solver call; alone decides its verdict
    out_dir: str = "ctgout"
    function: str | None = None
    do_not_stub: list[str] = field(default_factory=list)
    # per-callee globals a stub may write, in addition to what annotated
    # prototypes and the unit's own __rtt_modifies permit
    stub_globals: dict[str, list[str]] = field(default_factory=dict)
    verbose: bool = False
    quiet: bool = False
    jobs: int = 1
    dump_cfg: bool = False
    dump_stct: bool = False

    def __post_init__(self) -> None:
        if self.ptr_array_size < 1:
            raise ValueError("pointer region size must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max depth must be >= 1")
        if self.budget_nodes < 1:
            raise ValueError("solver node budget must be >= 1")
        if self.coverage not in ("c0", "c1"):
            raise ValueError(f"unknown coverage criterion {self.coverage!r}")

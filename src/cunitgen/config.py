"""Generation configuration shared across the pipeline."""

from __future__ import annotations


class Config:
    def __init__(self, coverage: str = "c1", max_depth: int = 256,
                 ptr_array_size: int = 10, solver: str = "builtin", budget_ms: int = 600000,
                 budget_nodes: int = 10000, out_dir: str = "ctgout",
                 function: str | None = None, do_not_stub: list[str] | None = None,
                 stub_globals: dict[str, list[str]] | None = None, verbose: bool = False,
                 quiet: bool = False, jobs: int = 1, dump_cfg: bool = False,
                 dump_stct: bool = False):
        self.coverage = coverage  # c0 or c1
        self.max_depth = max_depth
        self.ptr_array_size = ptr_array_size
        self.solver = solver  # builtin or smtlib-out
        self.budget_ms = budget_ms  # per-function wall-clock guard, an error
        self.budget_nodes = budget_nodes  # per solver call; with the pool, decides verdicts
        self.out_dir = out_dir
        self.function = function
        self.do_not_stub = [] if do_not_stub is None else do_not_stub
        # per-callee globals a stub may write, in addition to what annotated
        # prototypes and the unit's own __rtt_modifies permit
        self.stub_globals = {} if stub_globals is None else stub_globals
        self.verbose = verbose
        self.quiet = quiet
        self.dump_cfg = dump_cfg
        self.dump_stct = dump_stct
        # perfbench/run.py still passes jobs=1; functions are generated one
        # at a time, so no other value means anything
        if jobs != 1:
            raise ValueError("functions are generated one at a time: jobs must be 1")
        if self.ptr_array_size < 1:
            raise ValueError("pointer region size must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max depth must be >= 1")
        if self.budget_nodes < 1:
            raise ValueError("solver node budget must be >= 1")
        if self.coverage not in ("c0", "c1"):
            raise ValueError(f"unknown coverage criterion {self.coverage!r}")

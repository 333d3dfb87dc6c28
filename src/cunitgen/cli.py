"""Command-line front end: parse units, run generation, write artifacts.

Exit status: 0 when every selected function reached its target coverage,
2 when generation finished but coverage is incomplete (the reports explain
why), 1 on errors such as unparseable input.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

from .config import Config
from .errors import CunitgenError
from .frontend.parser import parse_unit
from .frontend.preprocessor import read_source
from .pipeline import generate_function, write_outputs


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cunitgen",
        description="Generate compilable unit tests for an annotated C subset "
                    "via symbolic execution.",
    )
    p.add_argument("sources", nargs="+", help="C source files (one unit each)")
    p.add_argument("--coverage", choices=["c0", "c1"], default="c1",
                   help="structural coverage criterion (default c1)")
    p.add_argument("--max-depth", type=int, default=256,
                   help="maximal depth of the symbolic test case tree")
    p.add_argument("--ptr-array-size", type=int, default=10,
                   help="element count of auto-generated pointer regions")
    p.add_argument("--solver", choices=["builtin", "smtlib-out"], default="builtin",
                   help="smtlib-out also writes each constraint to "
                        "<fn>_<n>.smt2 and takes a <fn>_<n>.model answer "
                        "that solves it as a hint")
    p.add_argument("--budget-ms", type=int, default=600000,
                   help="per-function wall-clock guard: a function still "
                        "generating at it is an error; it decides no verdict")
    p.add_argument("--budget-nodes", type=int, default=10000,
                   help="per-constraint solver search-node budget (at least "
                        "1); a function's calls share 50 times it")
    p.add_argument("--out-dir", default="ctgout")
    p.add_argument("--function", help="generate only for this function")
    p.add_argument("--do-not-stub", default="",
                   help="comma-separated callees that must not be stubbed")
    p.add_argument("--stub-globals", action="append", default=[],
                   metavar="CALLEE=G1,G2",
                   help="globals a stubbed callee may modify (repeatable)")
    p.add_argument("--dump-cfg", action="store_true",
                   help="write <fn>_cfg.txt next to the other outputs")
    p.add_argument("--dump-stct", action="store_true",
                   help="write <fn>_stct.txt, the final symbolic test case tree")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="log selected traces and constraint text")
    p.add_argument("-q", "--quiet", action="store_true")
    return p


def config_from_args(args: argparse.Namespace) -> Config:
    stub_globals: dict[str, list[str]] = {}
    for spec in args.stub_globals:
        callee, _, names = spec.partition("=")
        if not names:
            raise CunitgenError(f"malformed --stub-globals {spec!r}")
        stub_globals.setdefault(callee.strip(), []).extend(
            n.strip() for n in names.split(",") if n.strip())
    return Config(
        coverage=args.coverage,
        max_depth=args.max_depth,
        ptr_array_size=args.ptr_array_size,
        solver=args.solver,
        budget_ms=args.budget_ms,
        budget_nodes=args.budget_nodes,
        out_dir=args.out_dir,
        function=args.function,
        do_not_stub=[s.strip() for s in args.do_not_stub.split(",") if s.strip()],
        stub_globals=stub_globals,
        verbose=args.verbose,
        quiet=args.quiet,
        dump_cfg=args.dump_cfg,
        dump_stct=args.dump_stct,
    )


def ship_compat_header(out_dir: str) -> None:
    src = os.path.join(os.path.dirname(__file__), "data", "rtt_annotations.h")
    os.makedirs(out_dir, exist_ok=True)
    shutil.copyfile(src, os.path.join(out_dir, "rtt_annotations.h"))


def generate(config: Config, sources: list[str]) -> int:
    """Run the whole pipeline, one function at a time; returns the exit status.

    Every source is parsed first, so that parse diagnostics come in the
    order of the sources. A file that cannot be read or parsed costs only
    its own functions: its diagnostic names it, the other files are still
    generated, and the exit status is 1. So does a function whose artifacts
    cannot be written, and a function whose name an earlier source already
    defines: its files would overwrite that one's, so it writes nothing. An
    output directory that cannot be made stops the run with exit status 1.
    """
    status = 0
    work: list[tuple] = []
    owner: dict[str, str] = {}  # function name -> the source generating it
    for path in sources:
        try:
            unit = parse_unit(read_source(path), path,
                              os.path.dirname(os.path.abspath(path)))
        except (CunitgenError, OSError) as exc:
            status = 1
            if not config.quiet:
                reason = exc.strerror if isinstance(exc, OSError) else exc
                print(f"error: {path}: {reason}", file=sys.stderr)
            continue
        for fn in unit.functions:
            if fn.body is None or fn.annotation_only:
                continue
            if config.function and fn.name != config.function:
                continue
            if fn.name in owner:
                status = 1
                if not config.quiet:
                    print(f"error [{fn.name}]: {path}: {fn.name} is already "
                          f"generated from {owner[fn.name]}", file=sys.stderr)
                continue
            owner[fn.name] = path
            work.append((unit, fn))
    if config.function and not work:
        if not config.quiet:
            print(f"error: function {config.function} not found", file=sys.stderr)
        return 1
    try:
        ship_compat_header(config.out_dir)
    except OSError as exc:
        if not config.quiet:
            print(f"error: {config.out_dir}: {exc.strerror}", file=sys.stderr)
        return 1
    for unit, fn in work:
        outcome = generate_function(unit, fn, config)
        if outcome.status != "ok":
            status = 1
            if not config.quiet:
                print(f"error [{outcome.name}]: {outcome.message}", file=sys.stderr)
            continue
        try:
            write_outputs(outcome, unit, config)
        except OSError as exc:
            status = 1
            if not config.quiet:
                print(f"error [{outcome.name}]: {exc.filename}: {exc.strerror}",
                      file=sys.stderr)
            continue
        if not outcome.criterion_complete and status == 0:
            status = 2
        if not config.quiet:
            r = outcome.report
            print(f"{outcome.name}: {len(outcome.test_cases)} test cases, "
                  f"{r.nodes_covered}/{r.nodes_total} nodes, "
                  f"{r.edges_covered}/{r.edges_total} branch edges "
                  f"({outcome.elapsed_s:.2f}s)")
            if config.verbose and outcome.message:
                print(outcome.message)
    return status


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse ends a usage error with status 2, which here means
        # incomplete coverage; -h ends with 0
        return 1 if exc.code else 0
    try:
        config = config_from_args(args)
    except (CunitgenError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return generate(config, args.sources)


if __name__ == "__main__":
    sys.exit(main())

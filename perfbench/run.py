"""cunitgen benchmark: one workload per run, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the repository root. The steps of one run:

1. Build the workload's C units from the seed (``workloads.py``) and check
   that each compiles warning-free with gcc.
2. ``setup_s``: in fresh processes, import cunitgen and parse every unit;
   the median over several processes.
3. One untimed warm-up pass, then untraced passes until ``--seconds`` have
   passed, and at least enough of them for the workload's tail percentile:
   ``generate_function`` + ``write_outputs`` for every function, in this
   one process and thread (``Config.jobs = 1``). Timings are medians over
   these passes.
4. With ``--trace 1`` only, two traced passes: the same work with every
   layer's entry points wrapped (``layers.py``), giving per-layer counts and
   self times.
5. Checks, outside every timed region: each driver compiles with its unit
   and stubs under ``gcc -Werror`` and exits 0; no function errors, replays
   divergently or gets a verdict from the wall-clock budget; every pass,
   traced or not, writes byte-identical artifacts and repeats the same
   exact counters, every solver call's verdict and node count included.

Every time is reported in seconds at a fixed reference host speed
(``hostspeed.py``), so that the drift of a shared machine's speed cancels
out; the wall-clock figures are printed beside them. Every metric measured
is printed by name with its unit: the end-to-end ones always, the per-layer
ones with ``--trace 1``. The last line is one JSON object holding the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. A function failing any check counts in ``failed``.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
HEADER = os.path.join(SRC, "cunitgen", "data", "rtt_annotations.h")

sys.path[:0] = [HERE, SRC]
import hostspeed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

try:
    import cunitgen.frontend.parser as parser_mod
    import cunitgen.pipeline as pipeline_mod
    from cunitgen.cli import ship_compat_header
    from cunitgen.config import Config
    from layers import SolveLog, Tracer
except ImportError as exc:
    sys.exit(f"error: cannot import cunitgen from {SRC}: {exc}")

GCC = ["gcc", "-std=c99", "-Wall", "-Wextra", "-Werror", "-fwrapv"]
# A wall-clock solver budget this large never expires, so only the node
# budget (Config.budget_nodes) decides a verdict and verdicts do not depend
# on machine load. A verdict that still names the time budget is a failure.
BUDGET_MS = 10**9
SETUP_PROCESSES = 7
MIN_PASSES = 5
TAIL_BEYOND = 10  # samples a tail percentile must leave beyond it
TRACED_PASSES = 2
DRIVER_TIMEOUT_S = 30

# Child of the setup measurement: import cunitgen, parse every unit; prints
# the seconds that took and the host-speed scale around it.
_SETUP_CHILD = """
import os, sys, time
sys.path.insert(0, sys.argv[1])
import hostspeed
hostspeed.loop_s()
before = hostspeed.loop_s()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import cunitgen.pipeline
from cunitgen.frontend.parser import parse_unit
for path in sys.argv[3:]:
    with open(path, encoding="utf-8") as fh:
        parse_unit(fh.read(), path, os.path.dirname(path))
elapsed = time.perf_counter() - t0
print(elapsed, hostspeed.scale([before, hostspeed.loop_s()]))
"""


class BenchError(Exception):
    """The benchmark itself cannot run (broken input, failing set-up)."""


def gcc_check(args: list[str], cwd: str) -> str:
    """Run gcc; returns its diagnostics ("" when clean)."""
    proc = subprocess.run(GCC + args, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0 and not proc.stderr.strip():
        return f"gcc exited {proc.returncode}"
    return proc.stderr.strip()


def write_units(build, seed: int, src_dir: str) -> list[str]:
    os.makedirs(src_dir)
    shutil.copyfile(HEADER, os.path.join(src_dir, "rtt_annotations.h"))
    paths = []
    for name, text in build(seed):
        path = os.path.join(src_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        problem = gcc_check(["-c", name, "-o", name + ".o"], src_dir)
        if problem:
            raise BenchError(f"generated unit {name} does not compile cleanly:\n{problem}")
        paths.append(path)
    return paths


def measure_setup(paths: list[str]) -> list[tuple[float, float]]:
    """(wall seconds, host-speed scale) of each set-up process."""
    times = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, HERE, SRC, *paths],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed:\n{proc.stderr.strip()}")
        elapsed, scale = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(elapsed), float(scale)))
    return times


def unit_name(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def unit_dir(pass_dir: str, path: str) -> str:
    return os.path.join(pass_dir, unit_name(path))


def qualified(path: str, fn) -> str:
    """Function names repeat across corpus units, so prefix the unit."""
    return f"{unit_name(path)}:{fn.name}"


def parse_work(paths: list[str]) -> list[tuple]:
    """(path, unit, function) for every function that gets tests."""
    work = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        unit = parser_mod.parse_unit(text, path, os.path.dirname(path))
        for fn in unit.functions:
            if fn.body is not None and not fn.annotation_only:
                work.append((path, unit, fn))
    return work


class Pass:
    """One pass over every function: timings, outcomes and solver calls.

    ``fn_times`` are wall seconds. ``fn_scaled`` are the
    function times in seconds at the reference host speed (``hostspeed``),
    each scaled by the host-speed loop run right before and right after that
    function; ``scaled_total`` is their sum and ``scale`` the pass's mean
    factor.
    """

    def __init__(self, work: list[tuple], out_dir: str, tracer: Tracer | None = None,
                 collector: bool = False):
        self.out_dir = out_dir
        self.tracer = tracer
        self.fn_times: list[float] = []
        self.fn_scaled: list[float] = []
        self.outcomes: list = []
        self.solves: list[list[tuple[str, str, int]]] = []
        self._run(work, collector)

    def _run(self, work: list[tuple], collector: bool) -> None:
        """Generate and write every function.

        Each unit writes into its own directory, since units may share
        function and callee names. The cyclic garbage collector is emptied
        before the pass and, unless ``collector`` is set, kept off during it,
        as in ``timeit``: its pauses then neither land on whichever function
        the seed orders next to them nor vary from pass to pass.
        """
        configs = {}
        for path, _unit, _fn in work:
            out_dir = unit_dir(self.out_dir, path)
            ship_compat_header(out_dir)
            configs[path] = Config(budget_ms=BUDGET_MS, out_dir=out_dir, quiet=True, jobs=1)
        log = SolveLog()
        log.install()
        gc.collect()
        if not collector:
            gc.disable()
        try:
            loops = [hostspeed.loop_s()]
            for path, unit, fn in work:
                log.function = qualified(path, fn)
                if self.tracer is not None:
                    self.tracer.set_function(log.function)
                t0 = time.perf_counter()
                outcome = pipeline_mod.generate_function(unit, fn, configs[path])
                pipeline_mod.write_outputs(outcome, unit, configs[path])
                self.fn_times.append(time.perf_counter() - t0)
                self.outcomes.append(outcome)
                loops.append(hostspeed.loop_s())
        finally:
            gc.enable()
            log.uninstall()
        self.fn_scaled = [t * hostspeed.scale(loops[i:i + 2])
                          for i, t in enumerate(self.fn_times)]
        self.scaled_total = sum(self.fn_scaled)
        self.scale = self.scaled_total / sum(self.fn_times)
        self.solves = [log.calls.get(qualified(path, fn), []) for path, _u, fn in work]

    def digests(self, work: list[tuple]) -> list[str]:
        """Per function: hash of its artifacts and exact counters."""
        digests = []
        for (path, _unit, _fn), outcome, solves in zip(work, self.outcomes, self.solves):
            out_dir = unit_dir(self.out_dir, path)
            h = hashlib.sha256()
            names = [f"{outcome.name}_{kind}" for kind in
                     ("driver.c", "coverage.txt", "coverage.json", "trace.csv")]
            names += sorted(f"{spec.callee}_stub.c" for spec in outcome.stub_specs)
            for name in names:
                h.update(name.encode())
                artifact = os.path.join(out_dir, name)
                if os.path.exists(artifact):
                    with open(artifact, "rb") as fh:
                        h.update(fh.read())
            h.update(repr(counters(outcome, solves)).encode())
            digests.append(h.hexdigest())
        return digests


def counters(outcome, solves) -> tuple:
    """The exact counters every pass must repeat: status, test cases, replay
    divergences, covered edges, STCT modes and verdicts, and every solver
    call's verdict, reason and node count."""
    modes = [r.mode for r in outcome.selection_log]
    report = outcome.report
    return (outcome.status, len(outcome.test_cases), len(outcome.divergences),
            report.edges_covered if report else -1,
            modes.count("fresh"), modes.count("extend"), modes.count("complete"),
            tuple(r.verdict for r in outcome.selection_log), tuple(solves))


def oracle(work: list[tuple], outcomes, pass_dir: str) -> dict[str, str]:
    """Compile and run every driver; returns function -> failure reason."""
    failures = {}
    for (path, _unit, fn), outcome in zip(work, outcomes):
        if outcome.status != "ok":
            continue
        name = qualified(path, fn)
        out_dir = unit_dir(pass_dir, path)
        stubs = sorted(glob.glob(os.path.join(out_dir, "*_stub.c")))
        exe = os.path.join(out_dir, f"{fn.name}.exe")
        problem = gcc_check([f"-I{out_dir}", "-o", exe,
                             os.path.join(out_dir, f"{fn.name}_driver.c"), path,
                             *stubs], out_dir)
        if problem:
            failures[name] = f"driver does not compile cleanly: {problem}"
            continue
        try:
            proc = subprocess.run([exe], cwd=out_dir, capture_output=True,
                                  text=True, timeout=DRIVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failures[name] = "driver timed out"
            continue
        if proc.returncode != 0:
            failures[name] = f"driver exited {proc.returncode}"
    return failures


def rank(n: int, p: int) -> int:
    """1-based nearest rank of percentile p among n samples."""
    return max(math.ceil(p / 100 * n), 1)


def min_passes(functions: int, tail_p: int) -> int:
    """Fewest passes whose samples leave TAIL_BEYOND beyond percentile tail_p."""
    passes = MIN_PASSES
    while passes * functions - rank(passes * functions, tail_p) < TAIL_BEYOND:
        passes += 1
    return passes


def record(lines: list[str], name: str, value, unit: str,
           metrics: dict | None = None) -> None:
    """Print a metric by name with its unit; keep it for the JSON if asked."""
    if metrics is not None:
        metrics[name] = {"value": value, "unit": unit}
    lines.append(f"{name:28s} {value:>14.6g} {unit}")


def layer_metrics(traced: list[Pass], gen_s: float, lines: list[str]) -> dict:
    """Per-layer metrics of the traced passes.

    Times are in seconds at the reference host speed, medians over the
    traced passes.
    """
    counts = traced[0].tracer.counts
    per_pass = [(t.tracer.layer_times(), t.scale) for t in traced]
    calls = per_pass[0][0][0]

    def self_s(layer: str) -> float:
        return statistics.median(times[1][layer] * scale for times, scale in per_pass)

    modes = [r.mode for o in traced[0].outcomes for r in o.selection_log]
    # The reuse probe is extra work of the traced pass, not wrapper overhead.
    traced_gen_s = statistics.median(t.scaled_total - t.tracer.probe_s() * t.scale
                                     for t in traced)
    emitted = glob.glob(os.path.join(traced[0].out_dir, "*", "*"))
    solver_calls = max(counts["solver.calls"], 1)
    layer: dict = {}
    for name, value, unit in [
        ("frontend.calls", calls["frontend"], "count"),
        ("frontend.self_s", self_s("frontend"), "s"),
        ("frontend.bytes", counts["frontend.bytes"], "B"),
        ("imr.self_s", self_s("imr"), "s"),
        ("imr.cfg_nodes", counts["imr.cfg_nodes"], "count"),
        ("imr.cfg_edges", counts["imr.cfg_edges"], "count"),
        ("stct.calls", calls["stct"], "count"),
        ("stct.self_s", self_s("stct"), "s"),
        ("stct.fresh", modes.count("fresh"), "count"),
        ("stct.extend", modes.count("extend"), "count"),
        ("stct.complete", modes.count("complete"), "count"),
        ("symex.calls", calls["symex"], "count"),
        ("symex.self_s", self_s("symex"), "s"),
        ("symex.trace_edges", counts["symex.trace_edges"], "count"),
        ("constraints.self_s", self_s("constraints"), "s"),
        ("constraints.expr_nodes", counts["constraints.expr_nodes"], "count"),
        ("solver.calls", counts["solver.calls"], "count"),
        ("solver.sat", counts["solver.sat"], "count"),
        ("solver.unsat", counts["solver.unsat"], "count"),
        ("solver.unknown_nodes", counts["solver.unknown_nodes"], "count"),
        ("solver.self_s", self_s("solver"), "s"),
        ("solver.nodes", counts["solver.nodes"], "count"),
        ("solver.nodes_per_s", counts["solver.nodes"] / max(self_s("solver"), 1e-9), "1/s"),
        ("solver.decided_share",
         (counts["solver.sat"] + counts["solver.unsat"]) / solver_calls, "share"),
        ("solver.model_reuse_share", counts["solver.model_reuse_hits"] / solver_calls, "share"),
        ("prefix.calls", calls["prefix"], "count"),
        ("prefix.solve_calls", counts["prefix.solve_calls"], "count"),
        ("prefix.self_s", self_s("prefix"), "s"),
        ("accept.calls", calls["accept"], "count"),
        ("accept.self_s", self_s("accept"), "s"),
        ("accept.ratio", counts["accept.accepted"] / max(calls["accept"], 1), "share"),
        ("accept.divergences", sum(len(o.divergences) for o in traced[0].outcomes), "count"),
        ("emit.self_s", self_s("emit"), "s"),
        ("emit.bytes", sum(os.path.getsize(f) for f in emitted), "B"),
        ("trace.overhead_share", (traced_gen_s - gen_s) / gen_s, "share"),
    ]:
        record(lines, name, value, unit, layer)

    return layer


def run(args) -> int:
    build, tail_p = WORKLOADS[args.workload]
    run_dir = os.path.join(OUT_ROOT, f"{args.workload}-{args.seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    paths = write_units(build, args.seed, os.path.join(run_dir, "src"))
    setup_times = measure_setup(paths)

    work = parse_work(paths)
    if not work:
        raise BenchError("workload has no functions")
    names = [qualified(path, fn) for path, _u, fn in work]
    failures: dict[str, str] = {}

    # -- untraced passes: the end-to-end numbers ------------------------------------
    # The warm-up pass runs as cunitgen normally does, collector on, and
    # gives the peak memory; with the collector off, garbage cycles would
    # pile up until the end of each timed pass.
    last = Pass(work, os.path.join(run_dir, "warmup"), collector=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = [last]
    digests = [last.digests(work)]
    timed: list[Pass] = []
    fewest = min_passes(len(names), tail_p)
    started = time.perf_counter()
    while len(timed) < fewest or time.perf_counter() - started < args.seconds:
        this = Pass(work, os.path.join(run_dir, f"pass{len(timed)}"))
        digests.append(this.digests(work))
        timed.append(this)
        passes.append(this)
        shutil.rmtree(last.out_dir)
        last = this

    # -- traced passes (--trace 1 only): the per-layer numbers ----------------------
    traced: list[Pass] = []
    for i in range(TRACED_PASSES if args.trace else 0):
        tracer = Tracer(args.workload)
        tracer.install()
        try:
            traced_work = parse_work(paths)
            this = Pass(traced_work, os.path.join(run_dir, f"traced{i}"), tracer)
        finally:
            tracer.uninstall()
        traced.append(this)
        passes.append(this)
        digests.append(this.digests(traced_work))
        tracer.write_spans(os.path.join(run_dir, f"spans{i}.jsonl"))

    # -- checks ---------------------------------------------------------------------------
    for idx, (name, outcome) in enumerate(zip(names, last.outcomes)):
        reasons = [r.verdict for r in outcome.selection_log]
        reasons += [reason for p in passes for _st, reason, _n in p.solves[idx]]
        if outcome.status != "ok":
            failures[name] = f"error: {outcome.message}"
        elif outcome.divergences:
            failures[name] = f"replay divergence: {outcome.divergences[0]}"
        elif any("time budget" in r for r in reasons):
            failures[name] = "verdict decided by the wall-clock budget"
        elif len({d[idx] for d in digests}) != 1:
            failures[name] = "artifacts or counters differ between passes"
    for name, reason in oracle(work, last.outcomes, last.out_dir).items():
        failures.setdefault(name, reason)

    # -- end-to-end metrics ---------------------------------------------------------------
    outcomes = last.outcomes
    reports = [o.report for o in outcomes if o.report is not None]
    edges_covered = sum(r.edges_covered for r in reports)
    tests = sum(len(o.test_cases) for o in outcomes)
    # Times in seconds at the reference host speed (hostspeed.py).
    gen_s = statistics.median(p.scaled_total for p in timed)
    per_fn = [statistics.median(p.fn_scaled[i] for p in timed)
              for i in range(len(names))]
    samples = sorted(t for p in timed for t in p.fn_scaled)

    lines: list[str] = []
    e2e: dict = {}
    record(lines, "setup_s", statistics.median(t * k for t, k in setup_times), "s", e2e)
    record(lines, "gen_s", gen_s, "s", e2e)
    # The median over each function's median: with an even number of
    # functions the plain median of all samples would sit between two
    # functions' clusters and take the extreme sample of each.
    record(lines, "fn_s.p50", statistics.median(per_fn), "s", e2e)
    record(lines, "fn_s.tail", samples[rank(len(samples), tail_p) - 1], "s", e2e)
    record(lines, "peak_rss_mb", peak_rss_mb, "MB", e2e)
    record(lines, "edges_covered", edges_covered, "count", e2e)
    record(lines, "tests_per_edge", tests / max(edges_covered, 1), "1/edge", e2e)
    # Printed, not in the JSON: these are 0 on a healthy run, and a 0 has no
    # relative spread. fail_share is also the JSON's failed / attempted.
    record(lines, "edges_total", sum(r.edges_total for r in reports), "count")
    record(lines, "undecided_edges",
           sum(1 for r in reports for u in r.uncovered
               if u["kind"] == "edge" and u["verdict"] != "infeasible-proven"),
           "count")
    record(lines, "fail_share", len(failures) / len(names), "share")
    lines.append(f"fn_s.tail is p{tail_p} of {len(samples)} samples "
                 f"({len(timed)} passes x {len(names)} functions)")
    lines.append(f"wall clock: gen_s {statistics.median(sum(p.fn_times) for p in timed):.4f} s, "
                 f"setup_s {statistics.median(t for t, _k in setup_times):.4f} s; "
                 f"host at {statistics.median(p.scale for p in timed):.3f}x the reference speed")

    layer = layer_metrics(traced, gen_s, lines) if traced else {}

    print(f"workload {args.workload} seed {args.seed}: {len(names)} functions, "
          f"output in {os.path.relpath(run_dir, ROOT)}")
    for name in sorted(failures):
        print(f"FAILED {name}: {failures[name]}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(names),
        "failed": len(failures),
        "metrics": layer if args.trace else e2e,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the untraced passes run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: print end-to-end metrics; 1: per-layer metrics")
    args = p.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Every generated test procedure is one driver file that builds with its
unit alone and runs clean under AddressSanitizer and UBSan, and every file a
run writes belongs to one generated function."""

import json
import os
import subprocess

import pytest

from conftest import (
    CONVERSION_FUNCTIONS,
    CONVERSIONS,
    DATA_DIR,
    POINTER_CHOICE,
    POINTER_CHOICE_FUNCTIONS,
    POINTER_LOOP_FUNCTIONS,
    POINTER_LOOPS,
    compile_c,
)

from cunitgen.cli import main

SANITIZE = ["-fsanitize=address,undefined",
            "-fsanitize=float-cast-overflow,float-divide-by-zero",
            "-fno-sanitize-recover"]

# two functions of one unit stub ext with schedules of different lengths,
# and h, which calls nothing, links against the unit's call of ext too
EXT_TWICE = """\
int ext(int v);
int g(int y) { int a = ext(y); int b = ext(y + 1); if (a < -2 && b > 5) return 1; return 0; }
int f(int x) { if (ext(x) > 3) return 1; return 0; }
int h(int z) { if (z > 0) return 1; return 0; }
"""

# the two functions' out-parameter schedules differ, and f's postcondition
# check fails only under its own
OUT_PARAM_TWICE = """\
#include "rtt_annotations.h"
void get(int *o);
int f(int x) { __rtt_postcondition(__rtt_return == 0); int v = 0; get(&v); if (v > x + 100) return 1; return 0; }
int g(int y) { int w = 0; get(&w); if (w < y - 1000) return 1; return 0; }
"""

# a test case passes a null out-parameter to the stub
NULL_OUT_PARAM = """\
void get(int *o);
int f(int *p) { get(p); if (p == 0) return 2; if (*p > 3) return 1; return 0; }
"""

# two units of one run stub ext with schedules of different lengths
EXT_ONCE = """\
int ext(int v);
int f(int x) { if (ext(x) > 3) return 1; return 0; }
"""
EXT_TWICE_ALONE = """\
int ext(int v);
int g(int y) { int a = ext(y); int b = ext(y + 1); if (a < -2 && b > 5) return 1; return 0; }
"""

# helper is defined after its prototype: f's calls inline it, and no
# driver may define it for the link
FORWARD_PROTOTYPE = """\
int helper(int v);
int f(int x) { if (helper(x) > 3) return 1; return 0; }
int helper(int v) { return v * 2; }
"""

# floating constants and float symbols take the values of their types:
# 36.6 and 0.1 are no float, and 16777217.0f is 16777216
FLOAT_CONSTANTS = """\
#include "rtt_annotations.h"
int warm(float t) { if (t >= 36.6) return 1; return 0; }
int tenth(float x) { if (x == 0.1) return 1; return 0; }
int lit(int x) { if (x > 0) { if ((int)16777217.0f == 16777217) return 1; return 2; } return 0; }
int stored(int x) { float big = 16777217.0f; if (x > 0) { if ((int)big == 16777217) return 1; return 2; } return 0; }
int post(int x) { __rtt_postcondition(__rtt_return == 16777216); if (x > 0) return (int)16777217.0f; return 16777216; }
"""
FLOAT_CONSTANT_FUNCTIONS = ("lit", "post", "stored", "tenth", "warm")

# shape -> (file name, text, the functions it defines) per unit of one run
SHAPES = {
    "ext_twice": [("ext_twice.c", EXT_TWICE, ("f", "g", "h"))],
    "out_param_twice": [("out_param_twice.c", OUT_PARAM_TWICE, ("f", "g"))],
    "null_out_param": [("null_out_param.c", NULL_OUT_PARAM, ("f",))],
    "two_units": [("a.c", EXT_ONCE, ("f",)), ("b.c", EXT_TWICE_ALONE, ("g",))],
    "forward_prototype": [("forward_prototype.c", FORWARD_PROTOTYPE,
                           ("f", "helper"))],
    "pointer_loops": [("pointer_loops.c", POINTER_LOOPS, POINTER_LOOP_FUNCTIONS)],
    "pointer_choice": [("pointer_choice.c", POINTER_CHOICE, POINTER_CHOICE_FUNCTIONS)],
    "conversions": [("conversions.c", CONVERSIONS, CONVERSION_FUNCTIONS)],
    "float_constants": [("float_constants.c", FLOAT_CONSTANTS, FLOAT_CONSTANT_FUNCTIONS)],
}

# tick is an annotated prototype, which the unit defines once
# rtt_annotations.h empties its body; h never calls it
ANNOTATED_PROTOTYPE = """\
#include "rtt_annotations.h"
int count;
void tick(void) { __rtt_modifies(count); }
int f(int x) { tick(); if (count > x) return 1; return 0; }
int h(int z) { if (z > 0) return 1; return 0; }
"""


def generate(sources: list[str], out_dir: str, *args: str) -> list[str]:
    """Run the CLI; returns the functions it wrote a driver for."""
    assert main([*sources, "--out-dir", out_dir, "-q", *args]) in (0, 2)
    return sorted(name[:-len("_driver.c")] for name in os.listdir(out_dir)
                  if name.endswith("_driver.c"))


def build_and_run(out_dir: str, fn: str, unit: str) -> None:
    """Build fn's driver with its unit alone, sanitized, and run it."""
    exe = compile_c(out_dir, [os.path.join(out_dir, f"{fn}_driver.c"), unit],
                    exe=f"{fn}.exe", extra_flags=SANITIZE)
    proc = subprocess.run([exe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, f"{fn}: exit {proc.returncode}\n" \
        f"{proc.stdout}\n{proc.stderr}"


@pytest.mark.parametrize("unit", sorted(f for f in os.listdir(DATA_DIR)
                                        if f.endswith(".c")))
def test_corpus_driver_runs_sanitized(tmp_path, unit):
    out = str(tmp_path / "out")
    path = os.path.join(DATA_DIR, unit)
    functions = generate([path], out)
    assert functions
    for fn in functions:
        build_and_run(out, fn, path)


def write_shape(tmp_path, shape: str) -> list[tuple[str, tuple[str, ...]]]:
    """Write a shape's units; returns each one's path and functions."""
    units = []
    for name, text, functions in SHAPES[shape]:
        path = tmp_path / name
        path.write_text(text)
        units.append((str(path), functions))
    return units


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_stub_shape_runs_sanitized(tmp_path, shape):
    out = str(tmp_path / "out")
    units = write_shape(tmp_path, shape)
    functions = generate([path for path, _ in units], out)
    assert functions == sorted(fn for _, fns in units for fn in fns)
    for path, fns in units:
        for fn in fns:
            build_and_run(out, fn, path)


@pytest.mark.parametrize("shape", ["conversions", "pointer_choice", "pointer_loops"])
def test_shape_is_fully_covered(tmp_path, shape):
    # the loops end at a pointer one past the end of their array; k's shift
    # amount is checked as a long, not cut to an int first
    out = str(tmp_path / "out")
    [(path, functions)] = write_shape(tmp_path, shape)
    generate([path], out)
    for fn in functions:
        with open(os.path.join(out, f"{fn}_coverage.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["edges_covered"] == report["edges_total"] > 0, fn
        assert report["uncovered"] == [], fn


def test_float_constants_get_their_verdicts(tmp_path):
    # no float equals 0.1, and the search tries none that is; the true edge
    # of each 16777217 test is proven infeasible, as gcc's rounding makes it
    out = str(tmp_path / "out")
    [(path, functions)] = write_shape(tmp_path, "float_constants")
    generate([path], out)
    uncovered = {}
    for fn in functions:
        with open(os.path.join(out, f"{fn}_coverage.json"), encoding="utf-8") as fh:
            uncovered[fn] = [(u["description"], u["verdict"])
                             for u in json.load(fh)["uncovered"]]
    assert uncovered == {
        "lit": [("n7 -> n5 [__t0 == 16777217]", "infeasible-proven")],
        "post": [],
        "stored": [("n7 -> n5 [__t0 == 16777217]", "infeasible-proven")],
        "tenth": [("n4 -> n2 [x == 0.1]", "budget-exhausted")],
        "warm": [],
    }


def test_annotated_prototype_sibling_runs_sanitized(tmp_path):
    # f's own driver still defines tick beside the unit's definition
    path = tmp_path / "annotated_prototype.c"
    path.write_text(ANNOTATED_PROTOTYPE)
    out = str(tmp_path / "out")
    assert generate([str(path)], out) == ["f", "h"]
    build_and_run(out, "h", str(path))


def test_every_file_belongs_to_a_generated_function(tmp_path):
    out = str(tmp_path / "out")
    units = write_shape(tmp_path, "two_units")
    functions = generate([path for path, _ in units], out,
                         "--solver", "smtlib-out", "--dump-cfg", "--dump-stct")
    assert functions == ["f", "g"]
    for name in os.listdir(out):
        if name != "rtt_annotations.h":
            assert any(name.startswith(f"{fn}_") for fn in functions), name

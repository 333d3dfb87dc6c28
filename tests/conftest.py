import os
import re
import subprocess
import sys
from enum import Enum

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

GCC_FLAGS = ["-std=c99", "-Wall", "-Wextra", "-Werror", "-fwrapv"]

# pointer loops that compare a pointer formed by arithmetic one past the
# end of its array, which C allows (C11 6.5.6p8, 6.5.8p5)
POINTER_LOOPS = """\
int b[4];
int g[5];
struct s { int v; };
struct s arr[3];
int sum_lt(void) { int s = 0; int *p; for (p = b; p < b + 4; p++) s = s + *p; return s; }
int sum_ne(void) { int s = 0; int *p; for (p = b; p != b + 4; p++) s = s + *p; return s; }
int sum_le(void) { int s = 0; int *p; for (p = g; p <= g + 4; p++) s = s + *p; return s; }
int count_gt(int c)
{
    int n = 0;
    struct s *p;
    for (p = arr; p < arr + 3; p++) if (p->v > c) n = n + 1;
    return n;
}
int sum_down(void) { int s = 0; int *p; for (p = g + 5; p > g; ) { p--; s = s + *p; } return s; }
"""
POINTER_LOOP_FUNCTIONS = ("count_gt", "sum_down", "sum_le", "sum_lt", "sum_ne")

# an annotation's pointer ?: compared with null, as a truth value, and
# ordered against a pointer one past its array
POINTER_CHOICE = """\
#include "rtt_annotations.h"
int b[4];
int pick(int x, int *p, int *q)
{
    __rtt_precondition((x > 0 ? p : q) != 0);
    if (x > 0) { return *p; }
    return *q;
}
int either(int x, int *p, int *q)
{
    __rtt_precondition(x > 0 ? p : q);
    if (x > 0) { return *p; }
    return *q;
}
int before_end(int x, int i)
{
    __rtt_precondition(i >= 0 && i < 4);
    __rtt_precondition((x > 0 ? b + i : b) < b + 4);
    if (x > 0) { return b[i]; }
    return b[0];
}
"""
POINTER_CHOICE_FUNCTIONS = ("before_end", "either", "pick")

# C's conversions of operands: a comparison used as an int (f, and m's
# shift amount), a ?: arm narrower than the ?: (g), and shift amounts
# narrower (h) and wider (k) than the shifted value, which are promoted and
# range-checked in their own type (C11 6.5.7p3); f, g and m read in their
# bodies the parameter only their annotations read otherwise, or gcc
# -Wextra -Werror rejects the unit once rtt_annotations.h empties them
CONVERSIONS = """\
#include "rtt_annotations.h"
int f(int x, int y) { __rtt_precondition((x < y) == 1); if (x > 0) return 1; return y; }
int g(int x, int y) { __rtt_precondition((x > 0 ? (char)y : 300) > 5); if (y > 0) return x; return 0; }
long h(long x, int s) { long t = x << s; if (t > 5) return 1; return 0; }
int k(int x, long s) { int t = x << s; if (t > 5) return 1; return 0; }
int m(int x, int y) { __rtt_precondition((x << (y < 3)) > 1); if (x > 0) return y; return 0; }
"""
CONVERSION_FUNCTIONS = ("f", "g", "h", "k", "m")

# a pointer read from a union member that an integer was written to: symex
# cannot model it, so the read is a fresh pointer
UNION_POINTER = """\
union u { long l; int *p; };
union u g;
int f(long v) { g.l = v; if (g.p == 0) return 1; return 0; }
"""


def data_path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


def read_data(name: str) -> str:
    with open(data_path(name), "r", encoding="utf-8") as fh:
        return fh.read()


def compile_c(workdir: str, sources: list[str], exe: str = "a.out",
              extra_flags: list[str] | None = None) -> str:
    """gcc the sources warning-free; returns the executable path."""
    out = os.path.join(workdir, exe)
    cmd = ["gcc", *GCC_FLAGS, *(extra_flags or []), f"-I{workdir}",
           "-o", out, *sources]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, f"gcc failed:\n{proc.stderr}"
    assert not proc.stderr.strip(), f"gcc warnings:\n{proc.stderr}"
    return out


def run_exe(exe: str, args: list[str] | None = None) -> tuple[int, str]:
    proc = subprocess.run([exe, *(args or [])], capture_output=True, text=True)
    return proc.returncode, proc.stdout


def exported_candidates(text: str) -> dict[str, list[int]]:
    """Each pointer base's candidate ids, from the domain assertions of text."""
    out: dict[str, list[int]] = {}
    for line in text.splitlines():
        if line.startswith("(assert (or (and (= |") and "@baseAddress|" in line:
            name = line.split("|")[1]
            out[name] = [int(v) for v in re.findall(r"\(= \|[^|]+\| \(_ bv(\d+) 32\)", line)]
    return out


def same_records(a, b) -> bool:
    """Structural equality: records (objects with attributes) are equal when
    they are of the same class and their vars() are, recursively; lists,
    tuples and dicts element by element; anything else by ==. The program's
    mutable records compare by identity, so tests that check two runs or
    two paths build equal values compare them with this."""
    if a is b:
        return True
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) \
            and all(same_records(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() \
            and all(same_records(a[k], b[k]) for k in a)
    if hasattr(a, "__dict__") and not isinstance(a, Enum):
        return type(a) is type(b) and same_records(vars(a), vars(b))
    return a == b

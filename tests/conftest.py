import os
import re
import subprocess
import sys
from enum import Enum

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

GCC_FLAGS = ["-std=c99", "-Wall", "-Wextra", "-Werror", "-fwrapv"]


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

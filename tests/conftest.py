import os
import re
import subprocess
import sys

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

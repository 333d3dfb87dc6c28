"""Pinned artifact bytes: the sha256 of every file the CLI writes for each
tests/data unit, in four configurations, against the digests recorded in
artifact_digests.json. A change meant to keep the generator's answers
must keep these bytes; one meant to change them rewrites the record with

    python tests/test_artifact_pins.py
"""

import hashlib
import json
import os
import tempfile

import pytest

from conftest import DATA_DIR

from cunitgen.cli import main

DIGESTS = os.path.join(os.path.dirname(__file__), "artifact_digests.json")
UNITS = sorted(f for f in os.listdir(DATA_DIR) if f.endswith(".c"))
CONFIGS = {
    "builtin": [],
    "smtlib-out": ["--solver", "smtlib-out"],
    "c0": ["--coverage", "c0"],
    "dumps": ["--dump-cfg", "--dump-stct"],
}


def artifacts(unit: str, config: str, out_dir: str) -> dict:
    """The exit status and the digest of each file of one CLI run."""
    status = main([os.path.join(DATA_DIR, unit), *CONFIGS[config],
                   "--out-dir", out_dir, "-q"])
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = hashlib.sha256(fh.read()).hexdigest()
    return {"status": status, "files": files}


def _pinned() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("unit", UNITS)
def test_artifact_bytes_are_pinned(tmp_path, unit, config):
    assert artifacts(unit, config, str(tmp_path)) == _pinned()[f"{unit} {config}"]


if __name__ == "__main__":
    record = {}
    for unit in UNITS:
        for config in sorted(CONFIGS):
            with tempfile.TemporaryDirectory() as out:
                record[f"{unit} {config}"] = artifacts(unit, config, out)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

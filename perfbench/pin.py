#!/usr/bin/env python3
"""Rewrite pinned.json from the program as it stands.

    python3 perfbench/pin.py

Every benchmark run compares the default-seed fingerprints (CSV digests and
realized input shapes) with pinned.json.  Re-pin only in a change whose
purpose is to alter those outputs, and say so in that change.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import worker  # sets the import path to this checkout's src/
from workloads import PINNED, WORKLOADS


def main() -> int:
    worker.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="pin-", dir=worker.WORK))
    pinned = {}
    try:
        for name, cls in WORKLOADS.items():
            workload = cls()
            workload.setup(cls.default_seed, workdir)
            pinned[name] = workload.reference()["fingerprint"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(PINNED, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Default-scale digest: the default design's report, byte for byte.

    PYTHONPATH=src python tests/default_digest.py [THREADS ...]

runs ``qcdesign --out F --threads N design`` with no config (population
600, 100 generations, seed 12345) for each N given, 1 and 2 by default,
and exits 1 unless every report has the frozen sha256 below. Only this
scale reaches some paths: the run-loop LRU evicts, and the GA cache holds
over 21,000 procedures. It takes about a minute on 1 process and half
that on 2. Pytest does not collect this file.
"""

import hashlib
import sys
import tempfile
import time
from pathlib import Path

from qcdesign.cli import EXIT_OK, main

DIGEST = "61c409e09730147c6d56b3d26a1e742b54165a9c88c18a866ae0429e578488d9"


def _digest(threads: int) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "design.json"
        code = main(["--out", str(out), "--threads", str(threads), "design"])
        if code != EXIT_OK:
            return f"exit code {code}"
        return hashlib.sha256(out.read_bytes()).hexdigest()


def _check(thread_counts) -> int:
    failed = 0
    for threads in thread_counts:
        start = time.perf_counter()
        digest = _digest(threads)
        same = digest == DIGEST
        failed += not same
        print(f"{'ok' if same else 'DIFFERS'}  --threads {threads}: {digest}"
              f" ({time.perf_counter() - start:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_check([int(arg) for arg in sys.argv[1:]] or [1, 2]))

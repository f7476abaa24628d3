"""One benchmark sample: a fresh interpreter that runs one CLI command.

Usage: python3 perfbench/child.py [--spans PATH] -- <cli argv...>

Times ``import mera_lab.cli``, then calls ``mera_lab.cli.main(argv)`` with
stdout captured, and prints one JSON object on its own stdout:
``{"import_s", "run_s", "rc", "maxrss_kb", "stdout"}``.  With ``--spans`` the
package's public functions are wrapped after the import (see ``tracer.py``)
and the recorded spans are written to PATH when the command ends.

The parent puts the checkout's ``src`` on PYTHONPATH and bounds the BLAS and
OpenMP thread pools through the environment.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path = argv[1]
        argv = argv[2:]
    if argv[:1] != ["--"]:
        print("usage: child.py [--spans PATH] -- <cli argv...>", file=sys.stderr)
        return 2
    cli_argv = argv[1:]

    t0 = time.perf_counter()
    import mera_lab.cli

    t1 = time.perf_counter()
    recorder = None
    if spans_path is not None:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer

        recorder = tracer.install()
    captured = io.StringIO()
    t2 = time.perf_counter()
    with redirect_stdout(captured):
        rc = mera_lab.cli.main(cli_argv)
    t3 = time.perf_counter()
    if recorder is not None:
        recorder.write(spans_path)
    result = {
        "import_s": t1 - t0,
        "run_s": t3 - t2,
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stdout": captured.getvalue(),
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

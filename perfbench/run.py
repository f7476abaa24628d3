"""Fresh-process benchmark of the mera-lab CLI.

Usage:
    python3 perfbench/run.py --workload {optimize,sweep,ed} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each sample is a fresh interpreter
(``child.py``) that imports ``mera_lab.cli`` from the checkout's ``src`` and
runs one command, because a long-lived process would time cache hits (such
as the cached numeric angle search) that no CLI user gets.  A pass runs the
workload's commands one at a time.  The first pass of a run is a warm-up: it
is checked and recorded, but not measured.  Passes then repeat until the
next one would end after ``--seconds``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics, each
the median over the measured passes.  With ``--trace 1`` untraced and traced
passes alternate; the traced children wrap the package's public functions
(``tracer.py``) and run under ``-X importtime``, and the last line reports
the per-layer metrics.  Every command's output is checked against references
computed apart from the program (``verify.py``).  The full record, with the
environment block and the warm-up pass, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import verify  # noqa: E402

#: Rows of the sweep: about 2 s of ``cli.main`` per pass on a 2-core machine.
SWEEP_STEPS = 5001
#: Child time limit, so that a run ends within the 180 s a run is allowed.
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_LAYERS = {
    "import.numpy_s": ("cumulative", "numpy"),
    "import.scipy.linalg_s": ("cumulative", "scipy.linalg"),
    "import.scipy.optimize_s": ("cumulative", "scipy.optimize"),
    "import.mera_lab_s": ("self", "mera_lab"),
}
END_TO_END = {"wall_s": "s", "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Command:
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]


@dataclass
class Pass:
    traced: bool
    samples: list[dict] = field(default_factory=list)

    def end_to_end(self) -> dict[str, float]:
        return {
            "wall_s": sum(s["wall_s"] for s in self.samples),
            "setup_s": sum(s.get("import_s", 0.0) for s in self.samples),
            "run_s": sum(s.get("run_s", 0.0) for s in self.samples),
            "peak_rss_mb": max(s.get("maxrss_kb", 0) for s in self.samples) / 1024.0,
        }


def optimize_commands(rng: random.Random) -> Callable[[], list[Command]]:
    """Both entangler families; the payload must not change between passes."""
    payloads: dict[str, str] = {}

    def checker(entangler: str) -> Callable[[str], list[str]]:
        def check(text: str) -> list[str]:
            problems = verify.check_optimize(text, entangler)
            if not problems:
                payload = verify.split_document(text)[1]
                if payloads.setdefault(entangler, payload) != payload:
                    problems.append("payload bytes differ from an earlier run of the same command")
            return problems

        return check

    def make() -> list[Command]:
        commands = [
            Command(("optimize", "--entangler", e), checker(e)) for e in ("rotation", "rmatrix")
        ]
        rng.shuffle(commands)
        return commands

    return make


def sweep_commands(rng: random.Random) -> Callable[[], list[Command]]:
    """One long sweep over about (-pi/2, pi/2); the seed shifts both ends.

    The grid keeps crossing theta = +/-pi/4, where the projected problem
    vanishes, and theta* = -arctan(1/2)/2.
    """
    theta_min = -math.pi / 2 + rng.uniform(-0.01, 0.01)
    theta_max = math.pi / 2 + rng.uniform(-0.01, 0.01)
    argv = (
        "sweep",
        "--theta-min",
        format(theta_min, ".17g"),
        "--theta-max",
        format(theta_max, ".17g"),
        "--steps",
        str(SWEEP_STEPS),
    )

    def check(text: str) -> list[str]:
        return verify.check_sweep(text, theta_min, theta_max, SWEEP_STEPS)

    return lambda: [Command(argv, check)]


def ed_commands(rng: random.Random) -> Callable[[], list[Command]]:
    """The largest supported ring, and an odd open chain with two lowest-|Sz| blocks."""
    cases = ((12, "periodic"), (11, "open"))

    def make() -> list[Command]:
        commands = [
            Command(
                ("ed", "--sites", str(n), "--bc", bc),
                lambda text, n=n, bc=bc: verify.check_ed(text, n, bc),
            )
            for n, bc in cases
        ]
        rng.shuffle(commands)
        return commands

    return make


WORKLOADS = {"optimize": optimize_commands, "sweep": sweep_commands, "ed": ed_commands}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MERA_LAB_TOLERANCE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    limit = nproc()
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, ""))
        except ValueError:
            current = limit
        env[var] = str(min(max(current, 1), limit))
    return env


def environment(env: dict[str, str]) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        blas_name = blas_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "threads": {var: env[var] for var in THREAD_VARS},
        "nproc": nproc(),
        "platform": platform.platform(),
        "warmup_pass_discarded": True,
    }


def parse_importtime(stderr: str) -> dict[str, float]:
    """Setup-layer seconds from ``-X importtime`` lines; 0 for a module never imported."""
    found = {name: 0.0 for name in IMPORT_LAYERS}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        own_us, cumulative_us, module = int(parts[0]), int(parts[1]), parts[2].strip()
        for name, (kind, target) in IMPORT_LAYERS.items():
            if kind == "cumulative" and module == target:
                found[name] = cumulative_us * 1e-6
            elif kind == "self" and (module == target or module.startswith(target + ".")):
                found[name] += own_us * 1e-6
    return found


def run_child(command: Command, env: dict[str, str], traced: bool, deadline: float) -> dict:
    """One fresh interpreter running one command; returns its sample."""
    spans_path = OUT / ("spans-" + "-".join(command.argv).replace("/", "_") + ".json")
    args = [sys.executable]
    if traced:
        args += ["-X", "importtime"]
    args.append(str(CHILD))
    if traced:
        args += ["--spans", str(spans_path)]
    args += ["--", *command.argv]
    sample: dict = {"argv": list(command.argv), "traced": traced, "problems": []}
    start = time.perf_counter()
    proc = subprocess.Popen(
        args, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        sample["problems"].append("timed out")
    sample["wall_s"] = time.perf_counter() - start
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        sample["problems"].append(f"child exited {proc.returncode} without a result: {err[-500:]!r}")
        sample["failed"] = True
        return sample
    text = result.pop("stdout")
    sample.update(result)
    sample["failed"] = result["rc"] != 0
    if sample["failed"]:
        sample["problems"].append(f"exit code {result['rc']}: {err[-500:]!r}")
        return sample
    sample["problems"] += command.check(text)
    sample["failed"] = bool(sample["problems"])
    if traced:
        with open(spans_path, encoding="utf-8") as handle:
            sample["layers"] = tracer.reduce_spans(json.load(handle)["spans"])
        sample["imports"] = parse_importtime(err)
        if sample["layers"]["closure_error_s"] > 1e-9 or sample["layers"]["min_self_s"] < 0.0:
            sample["problems"].append("span self times do not add up to the cli.cmd_* total")
    return sample


def per_layer(passes: list[Pass], untraced: list[Pass]) -> dict[str, dict]:
    """Per-layer metrics: medians over traced passes of per-pass sums.

    A command that failed has no spans and adds nothing to its pass.
    """
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}

    def add(name: str, value: float, unit: str) -> None:
        values.setdefault(name, []).append(value)
        units[name] = unit

    for p in passes:
        traced = [s for s in p.samples if "layers" in s]
        for function in tracer.FUNCTIONS:
            for stat, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s")):
                total = sum(s["layers"]["functions"][function][stat] for s in traced)
                add(f"{function}.{stat}", total, unit)
        redundant = sum(s["layers"]["redundant"]["heisenberg.hamiltonian"] for s in traced)
        add("heisenberg.hamiltonian.redundant", redundant, "count")
        for name in IMPORT_LAYERS:
            add(name, sum(s["imports"][name] for s in traced), "s")
    metrics = {name: {"value": statistics.median(v), "unit": units[name]} for name, v in values.items()}
    traced_run = statistics.median(p.end_to_end()["run_s"] for p in passes)
    plain_run = statistics.median(p.end_to_end()["run_s"] for p in untraced)
    metrics["trace.overhead_s"] = {"value": traced_run - plain_run, "unit": "s"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mera_lab" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'mera_lab'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    env = child_env()
    make_pass = WORKLOADS[args.workload](random.Random(args.seed))
    traced_mode = bool(args.trace)

    def run_pass(traced: bool) -> Pass:
        p = Pass(traced)
        for command in make_pass():
            p.samples.append(run_child(command, env, traced, deadline))
        return p

    warmup = run_pass(False)
    passes: list[Pass] = []
    measure_start = time.monotonic()
    rounds = 0
    while True:
        passes.append(run_pass(False))
        if traced_mode:
            passes.append(run_pass(True))
        rounds += 1
        elapsed = time.monotonic() - measure_start
        per_round = elapsed / rounds
        if elapsed + per_round > args.seconds or time.monotonic() + 2 * per_round > deadline:
            break

    samples = warmup.samples + [s for p in passes for s in p.samples]
    attempted = len(samples)
    failed = sum(1 for s in samples if s["failed"])
    correct = not any(s["problems"] and s.get("rc") == 0 for s in samples)
    untraced = [p for p in passes if not p.traced]
    if traced_mode:
        metrics = per_layer([p for p in passes if p.traced], untraced)
    else:
        metrics = {
            name: {"value": statistics.median(p.end_to_end()[name] for p in untraced), "unit": unit}
            for name, unit in END_TO_END.items()
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(env),
        "warmup": warmup.end_to_end(),
        "passes": [{"traced": p.traced, **p.end_to_end()} for p in passes],
        "problems": [{"argv": s["argv"], "problems": s["problems"]} for s in samples if s["problems"]],
        "metrics": metrics,
    }
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"environment: {json.dumps(record['environment'])}")
    print(f"warm-up pass (discarded): {json.dumps(record['warmup'])}")
    for p in record["passes"]:
        print(f"pass: {json.dumps(p)}")
    for item in record["problems"]:
        print(f"problem: {json.dumps(item)}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Outside-in span recorder for the package's public functions.

``install()`` wraps each covered function after ``mera_lab.cli`` has been
imported.  A ``from x import f`` makes a separate binding of ``f`` in the
importing module, so every module of the package that binds a covered
function gets the wrapper, not only the defining one.  A span is
``[name, start, end, parent, key]``; ``parent`` is the index of the enclosing
span or -1, and ``key`` identifies the arguments of the calls counted for
redundancy (the Hamiltonian builds).  Spans stay in memory until
``Recorder.write`` dumps them, so that spans emitted by the program itself
can later replace these wrappers without changing the reduction.

``reduce_spans`` turns the spans of one process into per-function calls,
total time and self time (duration minus the time covered by child spans).
A covered function that no longer exists is skipped and reads as 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

PACKAGE = "mera_lab"

COVERED = {
    "gates": ("entangler_rotation", "rmatrix", "embed", "swap_layer"),
    "linalg": ("kron",),
    "mera": (
        "optimal_ratio",
        "circuit_matrix",
        "variational_state",
        "trial_state",
        "solve_theta_numeric",
        "solve_theta_analytic",
        "fidelity",
        "entanglement_entropy",
        "solve_nu_fit",
    ),
    "heisenberg": ("hamiltonian", "ground_state", "sector_basis", "project_sector"),
    "bethe": ("solve_two_magnon", "bethe_residual"),
    "wavelet": ("d4_coefficients", "angle_report"),
    "checks": ("run_checks",),
    "report": ("build_report", "payload_json", "document_json"),
    "cli": ("cmd_optimize", "cmd_sweep", "cmd_ed"),
}

FUNCTIONS = tuple(f"{module}.{name}" for module, names in COVERED.items() for name in names)

#: Functions whose calls are keyed by their arguments to count repeated work.
KEYED = ("heisenberg.hamiltonian",)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        key_of = _key_function(fn) if name in KEYED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            if key_of is not None:
                span[4] = key_of(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


def _key_function(fn):
    signature = inspect.signature(fn)

    def key_of(args, kwargs) -> str:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return ",".join(str(getattr(v, "value", v)) for v in bound.arguments.values())

    return key_of


def install() -> Recorder:
    """Wrap every covered function at every package module that binds it."""
    recorder = Recorder()
    wrappers: dict[int, tuple] = {}
    for module, names in COVERED.items():
        try:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            continue
        for name in names:
            fn = getattr(mod, name, None)
            if callable(fn):
                wrappers[id(fn)] = (fn, recorder.wrap(f"{module}.{name}", fn))
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(mod, attr, entry[1])
    return recorder


def reduce_spans(spans: list[list]) -> dict:
    """Per-function calls/total/self, redundant keyed calls, and cmd_* closure.

    ``closure_error_s`` is the largest gap, over the root ``cli.cmd_*`` spans,
    between a root's duration and the sum of the self times in its subtree;
    ``min_self_s`` is negative when child spans overrun their parent.
    """
    duration = [end - start for _, start, end, _, _ in spans]
    self_time = list(duration)
    root = list(range(len(spans)))
    for index, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            self_time[parent] -= duration[index]
            root[index] = root[parent]
    per_function = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in FUNCTIONS}
    keys: dict[str, list] = {name: [] for name in KEYED}
    subtree_self: dict[int, float] = {}
    for index, (name, _, _, _, key) in enumerate(spans):
        entry = per_function.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += duration[index]
        entry["self_s"] += self_time[index]
        if name in keys:
            keys[name].append(key)
        subtree_self[root[index]] = subtree_self.get(root[index], 0.0) + self_time[index]
    closure_error = 0.0
    for index, (name, _, _, parent, _) in enumerate(spans):
        if parent < 0 and name.startswith("cli.cmd_"):
            closure_error = max(closure_error, abs(subtree_self[index] - duration[index]))
    redundant = {name: len(found) - len(set(found)) for name, found in keys.items()}
    return {
        "functions": per_function,
        "redundant": redundant,
        "closure_error_s": closure_error,
        "min_self_s": min(self_time, default=0.0),
    }

"""Run one afferentsim CLI command in this process, optionally traced.

usage: child.py INFO_JSON TRACE_JSON|- [CLI_ARG ...]

Writes INFO_JSON as soon as `afferentsim.cli` is imported, before
`cli.main` is entered: the monotonic clock reading at that moment (the
parent subtracts its spawn time to get the set-up time) and the library
versions.  Without CLI arguments it stops there, which measures set-up
alone.  With a TRACE_JSON path it wraps the layer functions listed in
SPANS, runs the command, and writes every span at exit.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from time import perf_counter_ns


class Tracer:
    """Spans kept in memory: [name, parent index, start ns, end ns, attr]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name, fn, attr=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter_ns()
                stack.pop()
            if attr is not None:
                rec[4] = attr(args, kwargs, result)
            return result

        return traced


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _path_and_size(pos):
    def attr(args, kwargs, result):
        path = os.path.abspath(_arg(args, kwargs, pos, "path"))
        return [path, os.path.getsize(path)]
    return attr


# span name -> (module, attribute path, attr(args, kwargs, result) or None).
# Attribute paths with a dot name a method, which is wrapped on its class;
# functions are wrapped in every afferentsim module that holds them, so
# names imported with `from .x import f` are traced where they are looked up.
SPANS = {
    "cli.main": ("cli", "main", None),
    "mesh.build": ("mesh", "build_mesh", None),
    "mesh.save": ("mesh", "save_mesh", None),
    "config.save": ("config", "save_resolved_config", None),
    "stimulus.generate": ("stimulus", "StimulusSpec.generate", None),
    "fem.assemble": ("fem", "StiffnessSystem.__init__", None),
    "fem.factorization": ("fem", "StiffnessSystem.factorization", None),
    "fem.splu": ("fem", "splu", None),
    "fem.run": (
        "fem", "run_indentation",
        lambda a, k, r: len(_arg(a, k, 1, "indenter").displacement_trace),
    ),
    "fem.contact": ("fem", "contact_active_set", lambda a, k, r: hash(tuple(sorted(r)))),
    "fem.solve": ("fem", "solve_step", None),
    "fem.recover": ("fem", "recover_stress", None),
    "fem.trace_read": ("fem", "StressTrace.from_csv", _path_and_size(1)),
    "fem.trace_write": ("fem", "StressTrace.to_csv", _path_and_size(1)),
    "neural.filter": ("neural", "filtered_inputs", None),
    "neural.drive": ("neural", "stress_to_drive", None),
    "neural.lif": (
        "neural", "simulate_lif", lambda a, k, r: len(_arg(a, k, 0, "drive").values) - 1,
    ),
    "neural.count": (
        "neural", "count_spikes_in_window",
        lambda a, k, r: len(_arg(a, k, 0, "drive_values")) - 1,
    ),
    "neural.save": ("neural", "save_spike_trains", None),
    "optimize.eval": ("optimize", "RateEvaluator.__call__", None),
    "optimize.generation": ("optimize", "_evaluate_batch", None),
    "optimize.nsga2": ("optimize", "nsga2", None),
    "optimize.sort": ("optimize", "fast_non_dominated_sort", None),
    "optimize.crowding": ("optimize", "crowding_distance", None),
    "optimize.front_export": ("optimize", "front_to_csv", None),
    "optimize.selected_export": ("optimize", "selected_to_json", None),
    "analysis.regression": ("analysis", "regression", None),
    "analysis.rates_export": ("analysis", "rate_records_to_csv", None),
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every SPANS target; returns the span names whose target is gone."""
    import afferentsim

    modules = [m for name, m in sys.modules.items()
               if name == "afferentsim" or name.startswith("afferentsim.")]
    missing = []
    for span, (module_name, path, attr) in SPANS.items():
        owner = getattr(afferentsim, module_name, None)
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(name) if owner is not None else None
        if raw is None:
            missing.append(span)
        elif isinstance(owner, type):
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, name, type(raw)(tracer.wrap(span, raw.__func__, attr)))
            else:
                setattr(owner, name, tracer.wrap(span, raw, attr))
        else:
            traced = tracer.wrap(span, raw, attr)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, traced)
    return missing


def main() -> int:
    info_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from afferentsim import cli, neural
    import numpy
    import scipy

    with open(info_path, "w") as fh:
        json.dump({
            "main_start": time.monotonic(),
            "have_numba": bool(getattr(neural, "HAVE_NUMBA", False)),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }, fh)
    if not argv:
        return 0
    if trace_path == "-":
        return cli.main(argv)
    tracer = Tracer()
    missing = install(tracer)
    try:
        return cli.main(argv)
    finally:
        with open(trace_path, "w") as fh:
            json.dump({"missing": missing, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())

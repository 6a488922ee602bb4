"""Per-layer metrics from the spans one traced operation wrote."""

from __future__ import annotations

import os
from collections import defaultdict

# metric name -> unit, in the order they are reported.
UNITS = {
    "fem.steps": "count",
    "fem.solve_s": "s",
    "fem.solves": "count",
    "fem.solve_us_per_step": "us",
    "fem.recover_s": "s",
    "fem.contact_s": "s",
    "fem.contact_calls": "count",
    "fem.run_self_s": "s",
    "fem.assemble_s": "s",
    "fem.factor_s": "s",
    "fem.factorizations": "count",
    "fem.factor_hit_ratio": "ratio",
    "fem.contact_sets": "count",
    "mesh.build_s": "s",
    "stimulus.generate_s": "s",
    "cli.cache_hits": "count",
    "cli.cache_misses": "count",
    "cli.cache_read_s": "s",
    "cli.cache_bytes_read": "bytes",
    "cli.cache_write_s": "s",
    "cli.cache_bytes_written": "bytes",
    "cli.export_s": "s",
    "cli.self_s": "s",
    "neural.count_s": "s",
    "neural.count_calls": "count",
    "neural.lif_steps": "count",
    "neural.ns_per_lif_step": "ns",
    "neural.filter_s": "s",
    "neural.drive_s": "s",
    "neural.lif_s": "s",
    "optimize.evals": "count",
    "optimize.eval_s": "s",
    "optimize.ms_per_eval": "ms",
    "optimize.generations": "count",
    "optimize.sort_s": "s",
    "optimize.nsga2_self_s": "s",
    "analysis.regression_s": "s",
    "analysis.export_s": "s",
    "trace.overhead_s": "s",
}

# Spans whose time counts as the CLI writing its result files.
_EXPORTS = (
    "mesh.save", "config.save", "neural.save",
    "optimize.front_export", "optimize.selected_export",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, out_dir: str) -> dict[str, float]:
    """Totals per span name, self times, and the derived ratios.

    Times are seconds.  `trace.overhead_s` needs untraced runs too and is
    filled in by the caller.
    """
    spans = trace["spans"]
    total = defaultdict(float)
    calls = defaultdict(int)
    child_time = defaultdict(float)
    for name, parent, start, end, _ in spans:
        dur = (end - start) * 1e-9
        total[name] += dur
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += dur
    self_time = defaultdict(float)
    for i, (name, _, start, end, _) in enumerate(spans):
        self_time[name] += (end - start) * 1e-9 - child_time[i]

    def attrs(name):
        return [s[4] for s in spans if s[0] == name and s[4] is not None]

    cache_dir = os.path.join(os.path.abspath(out_dir), "cache") + os.sep
    reads = [s for s in spans if s[0] == "fem.trace_read" and s[4]]
    writes = [s for s in spans if s[0] == "fem.trace_write" and s[4]]
    cache_writes = [s for s in writes if s[4][0].startswith(cache_dir)]
    exports = [s for s in writes if not s[4][0].startswith(cache_dir)]

    def span_s(selected):
        return sum((s[3] - s[2]) * 1e-9 for s in selected)

    steps = sum(attrs("fem.run"))
    lif_steps = sum(attrs("neural.count")) + sum(attrs("neural.lif"))
    return {
        "fem.steps": steps,
        "fem.solve_s": total["fem.solve"],
        "fem.solves": calls["fem.solve"],
        "fem.solve_us_per_step": _ratio(total["fem.solve"] * 1e6, steps),
        "fem.recover_s": total["fem.recover"],
        "fem.contact_s": total["fem.contact"],
        "fem.contact_calls": calls["fem.contact"],
        "fem.run_self_s": self_time["fem.run"],
        "fem.assemble_s": total["fem.assemble"],
        "fem.factor_s": total["fem.splu"],
        "fem.factorizations": calls["fem.splu"],
        "fem.factor_hit_ratio": _ratio(
            calls["fem.factorization"] - calls["fem.splu"], calls["fem.factorization"]
        ),
        "fem.contact_sets": len(set(attrs("fem.contact"))),
        "mesh.build_s": total["mesh.build"],
        "stimulus.generate_s": total["stimulus.generate"],
        "cli.cache_hits": len(reads),
        "cli.cache_misses": len(cache_writes),
        "cli.cache_read_s": span_s(reads),
        "cli.cache_bytes_read": sum(s[4][1] for s in reads),
        "cli.cache_write_s": span_s(cache_writes),
        "cli.cache_bytes_written": sum(s[4][1] for s in cache_writes),
        "cli.export_s": span_s(exports) + sum(total[n] for n in _EXPORTS),
        "cli.self_s": self_time["cli.main"],
        "neural.count_s": total["neural.count"],
        "neural.count_calls": calls["neural.count"],
        "neural.lif_steps": lif_steps,
        "neural.ns_per_lif_step": _ratio(
            (total["neural.count"] + total["neural.lif"]) * 1e9, lif_steps
        ),
        "neural.filter_s": total["neural.filter"],
        "neural.drive_s": total["neural.drive"],
        "neural.lif_s": total["neural.lif"],
        "optimize.evals": calls["optimize.eval"],
        "optimize.eval_s": total["optimize.eval"],
        "optimize.ms_per_eval": _ratio(total["optimize.eval"] * 1e3, calls["optimize.eval"]),
        "optimize.generations": calls["optimize.generation"],
        "optimize.sort_s": total["optimize.sort"] + total["optimize.crowding"],
        "optimize.nsga2_self_s": self_time["optimize.nsga2"],
        "analysis.regression_s": total["analysis.regression"],
        "analysis.export_s": total["analysis.rates_export"],
    }

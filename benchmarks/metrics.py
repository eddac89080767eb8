"""Metric names, units and how each is computed.

End-to-end metrics come from untraced runs; per-layer metrics from the
traced phase of a ``--trace 1`` run.  ``README.md`` maps each per-layer
metric to the end-to-end metric and workload it should move.
"""
from __future__ import annotations

import statistics

import numpy as np

from tracer import EIGH, Spans

END_TO_END = {
    "setup_s": "s",
    "request_ms.p50": "ms",
    "request_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

# Layer metric prefix -> span name, where the two differ.
SPAN_OF = {
    "cli.spectrum": "cli.cmd_spectrum",
    "cli.approx": "cli.cmd_approx",
}

SPECTRAL = ("spectral_family", "spectral_bounds", "reduced_representation",
            "simple_approximation", "reconstruct", "orthogonal_decomposition",
            "comparability_witness")

SUITES = {
    "sea": "verify.run_sea_suite",
    "compression": "verify.run_compression_suite",
    "spectrality": "verify.run_spectrality_suite",
    "context": "verify.run_context_suite",
    "tables": "verify.run_table_suite",
}

# (prefix, statistic).  calls: spans in the count window.  eigh_per_call:
# eigh spans beneath each of them, at any depth, per call.  self_s: self
# time per operation, averaged over every traced operation; s: the same
# with child spans included.  ``linalg.eigh.s`` holds the eigensolver's
# whole cost whether or not its kernel is a separate public function.
LAYER_STATS = [
    ("linalg.eigh", "calls"), ("linalg.eigh", "self_s"), ("linalg.eigh", "s"),
    ("matrices.random_unitary", "calls"), ("matrices.random_unitary", "self_s"),
    ("matrices.seq_product", "calls"), ("matrices.seq_product", "self_s"),
    ("matrices.validate_effect", "self_s"),
    ("matrices.rickart", "calls"), ("matrices.rickart", "eigh_per_call"),
    ("matrices.floor", "eigh_per_call"),
    *[(f"spectral.{fn}", stat) for fn in SPECTRAL
      for stat in ("calls", "self_s", "eigh_per_call")],
    ("spectral.MatrixContext.rickart", "calls"),
    ("spectral.MatrixContext.positive_part", "calls"),
    ("fuzzy.FuzzyContext.rickart", "calls"),
    ("fuzzy.mv_is_context_spectral", "self_s"),
    ("cli.spectrum", "self_s"), ("cli.spectrum", "eigh_per_call"),
    ("cli.approx", "self_s"), ("cli.approx", "eigh_per_call"),
    ("report.merge_reports", "self_s"),
    ("tables.check_ea_axioms", "self_s"),
]

STAT_UNIT = {"calls": "count", "self_s": "s", "s": "s",
             "eigh_per_call": "count/call"}


def _suite_metrics():
    for suite in SUITES:
        for kind in ("", ".control"):
            yield f"verify.{suite}{kind}.s", "s"
            yield f"verify.{suite}{kind}.eigh_calls", "count"


PER_LAYER = {
    "linalg.eigh.calls_per_op": "count/op",
    **{f"{prefix}.{stat}": STAT_UNIT[stat] for prefix, stat in LAYER_STATS},
    **dict(_suite_metrics()),
    "verify.checks": "count",
    "report.bytes": "B",
    "trace.overhead_ratio": "ratio",
    "trace.absent_targets": "count",
}


def span_targets() -> set[str]:
    """Span names the per-layer metrics read."""
    names = {SPAN_OF.get(prefix, prefix) for prefix, _ in LAYER_STATS}
    return names | set(SUITES.values()) | {EIGH}


def is_control(report) -> bool:
    """Note kept on suite spans: was this suite a negative control?"""
    return bool(getattr(report, "metadata", {}).get("negative_control"))


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) by linear interpolation."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(values))


def layer_metrics(spans: Spans, notes: dict, op_roots: list[int],
                  window_ops: int, facts: dict) -> dict:
    """Per-layer metrics from traced operations.

    ``op_roots`` holds the root span index of each traced operation, in
    order; the first ``window_ops`` operations form the count window, whose
    counts repeat exactly for a given seed.
    """
    n_ops = len(op_roots)
    lo = op_roots[0]
    hi = op_roots[window_ops] if window_ops < n_ops else len(spans)
    in_window = np.zeros(len(spans), dtype=bool)
    in_window[lo:hi] = True
    eigh_below = np.zeros(len(spans), dtype=np.int64)
    eigh_below[lo:hi] = spans.below(EIGH, lo, hi)

    out = {}
    for prefix, stat in LAYER_STATS:
        mask = spans.mask(SPAN_OF.get(prefix, prefix))
        calls = int(np.count_nonzero(mask & in_window))
        if stat == "calls":
            value = calls
        elif stat == "self_s":
            value = float(spans.self_time[mask].sum()) / n_ops
        elif stat == "s":
            value = float(spans.duration[mask].sum()) / n_ops
        else:
            below = int(eigh_below[mask & in_window].sum())
            value = below / calls if calls else 0.0
        out[f"{prefix}.{stat}"] = value
    eigh_calls = int(np.count_nonzero(spans.mask(EIGH) & in_window))
    out["linalg.eigh.calls_per_op"] = eigh_calls / window_ops

    control = np.zeros(len(spans), dtype=bool)
    for i, flag in notes.items():
        control[i] = flag
    for suite, span_name in SUITES.items():
        mask = spans.mask(span_name)
        for kind, sel in (("", mask & ~control), (".control", mask & control)):
            out[f"verify.{suite}{kind}.s"] = (
                float(spans.duration[sel].sum()) / n_ops)
            out[f"verify.{suite}{kind}.eigh_calls"] = int(
                eigh_below[sel & in_window].sum())
    out["verify.checks"] = facts.get("checks", 0)
    out["report.bytes"] = facts["report_bytes"]
    return out

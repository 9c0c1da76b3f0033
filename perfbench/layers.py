"""Per-layer metrics from one traced pass.

Every metric is a self time in seconds, an inclusive time in seconds, a
span count, or a count computed by the tracer's observers from arguments
and results (solver iterations, block counts, eigen sizes).  The
``numpy.linalg.*_dim3`` figures are computed from array shapes, as the
sum of d^3 (eigen) and m*n*min(m, n) (SVD) over calls; they are operation
counts derived from sizes, not measured flops or bytes.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

import numpy as np

from tracer import LAYER_MODULES, LINALG, SOLVERS, Tracer, self_times

SOLVER_FIELDS = ("iterations", "solver_calls", "cap_hits", "unconverged")
FAMILY_BUILDERS = ("gf2.build_field_family", "gf2.build_shift_family")


def layer_metrics(tracer: Tracer, spans_out: str | None = None) -> dict:
    sp = tracer.spans()
    self_s = self_times(sp)
    dur = sp["end"] - sp["start"]
    n_names = len(tracer.names)
    calls = np.bincount(sp["name"], minlength=n_names)
    self_by_name = np.bincount(sp["name"], weights=self_s, minlength=n_names)
    total_by_name = np.bincount(sp["name"], weights=dur, minlength=n_names)
    by_name = {name: i for i, name in enumerate(tracer.names)}

    def name_calls(name):
        return int(calls[by_name[name]]) if name in by_name else 0

    def name_self(name):
        return float(self_by_name[by_name[name]]) if name in by_name else 0.0

    def name_total(name):
        return float(total_by_name[by_name[name]]) if name in by_name else 0.0

    layer_calls: dict = defaultdict(int)
    layer_self: dict = defaultdict(float)
    for i, layer in enumerate(tracer.layers):
        layer_calls[layer] += int(calls[i])
        layer_self[layer] += float(self_by_name[i])

    counts, maxima = tracer.counters()
    out: dict = {}
    for layer in LAYER_MODULES + ("numpy.linalg",):
        out[f"{layer}.calls"] = layer_calls[layer]
        out[f"{layer}.self_s"] = layer_self[layer]
    for fname in SOLVERS:
        key = f"entropies.{fname}"
        out[f"{key}.calls"] = name_calls(key)
        out[f"{key}.self_s"] = name_self(key)
        out[f"{key}.total_s"] = name_total(key)
        for field in SOLVER_FIELDS:
            out[f"{key}.{field}"] = int(counts.get(f"{key}.{field}", 0))
        out[f"{key}.max_gap_bits"] = float(maxima.get(f"{key}.max_gap_bits", 0.0))
    out["extractors.evals"] = (name_calls("extractors.ExtractorSpec.__call__")
                               + name_calls("extractors.ComponentExtractor.__call__"))
    out["gf2.gf2_matvec.calls"] = name_calls("gf2.gf2_matvec")
    out["gf2.family_build.calls"] = sum(name_calls(n) for n in FAMILY_BUILDERS)
    out["gf2.family_build.total_s"] = sum(name_total(n) for n in FAMILY_BUILDERS)
    for fname, count_key in (("extractor_output_state", "blocks_in"),
                             ("distance_to_uniform", "blocks")):
        key = f"cq_states.{fname}"
        out[f"{key}.calls"] = name_calls(key)
        out[f"{key}.self_s"] = name_self(key)
        out[f"{key}.{count_key}"] = int(counts.get(f"{key}.{count_key}", 0))
    for fname in LINALG:
        out[f"numpy.linalg.{fname}.calls"] = name_calls(f"numpy.linalg.{fname}")
    for kind in ("eig", "svd"):
        out[f"numpy.linalg.{kind}_calls"] = int(counts.get(f"{kind}_calls", 0))
        out[f"numpy.linalg.{kind}_dim3"] = int(counts.get(f"{kind}_dim3", 0))
    out["xor_analysis.pgm.calls"] = name_calls("xor_analysis.pgm")
    out["harness.scenarios.make_side_info.total_s"] = name_total(
        "harness.scenarios.make_side_info")
    in_layers = np.array([layer != "bench" for layer in tracer.layers])
    out["trace.spans"] = int(calls[in_layers].sum())
    out["trace.unattributed_s"] = name_self("bench.pass")

    if spans_out:
        path = Path(spans_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(tracer.names), layers=np.array(tracer.layers),
                            self_s=self_s, **sp)
    return out

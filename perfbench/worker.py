"""One workload pass in a fresh process; prints one JSON line.

Run by ``run.py`` as ``python -I perfbench/worker.py <root> <workload>
<mode> [<spans-out>]``, where mode is ``setup`` (stop after set-up),
``pass`` or ``trace``.  Each pass gets its own interpreter, so nothing
cached by one pass (matrix families, lru caches) helps the next, just as
for two ``extraction-lab verify`` calls.

The process measures its own set-up (importing ``extraction_lab`` and
loading the workload config), then one pass: ``run_suite`` followed by
``render_json`` and ``render_csv``.  Set-up and the pass run under the
speed gauge of ``calibrate.py``, and both their wall time and their time
at reference speed are reported.  In trace mode the pass also runs under
the outside-in tracer, and the per-layer aggregates are added.
"""

import time

T_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from calibrate import Gauge  # noqa: E402

SETUP_GAUGE = Gauge(with_numpy=False)
SETUP_GAUGE.start()

ROOT = Path(sys.argv[1])
sys.path.insert(0, str(ROOT / "src"))

import extraction_lab  # noqa: E402
from extraction_lab.harness import suite  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

WORKLOAD = WORKLOADS[sys.argv[2]]
CONFIG = suite.load_config(WORKLOAD.suite_arg())
SETUP_WALL_S = time.perf_counter() - T_START
SETUP_GAUGE.stop()
SETUP_S = SETUP_GAUGE.reference_s(SETUP_WALL_S)

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

PASS_TOL = 1e-9


def _check_source() -> None:
    """Refuse to measure an extraction_lab imported from anywhere but ROOT/src."""
    where = Path(extraction_lab.__file__).resolve()
    if (ROOT / "src").resolve() not in where.parents:
        raise SystemExit(f"extraction_lab imported from {where}, not from {ROOT / 'src'}")


def _audit(report_json: str, report_csv: str) -> dict:
    """Row counts recomputed from the rendered reports, outside the timed pass."""
    doc = json.loads(report_json)
    rows = doc["reports"]
    failed = flagged = unconverged = 0
    for row in rows:
        within = row["measured_delta"] <= row["bound_epsilon"] + PASS_TOL
        if not within or row["pass"] is not True:
            failed += 1
        conv = [v for k, v in row["flags"].items() if k.startswith("converged")]
        if conv:
            flagged += 1
            unconverged += any(v is False for v in conv)
    csv_rows = report_csv.count("\n") - 1
    consistent = (doc["summary"]["n_reports"] == len(rows) == csv_rows
                  and doc["all_pass"] == (failed == 0))
    return {"rows": len(rows), "failed_rows": failed, "flagged_rows": flagged,
            "unconverged_rows": unconverged, "consistent": consistent}


def _run_pass():
    t0 = time.perf_counter()
    # Called through the module so that the tracer's rebinding applies.
    result = suite.run_suite(CONFIG, seed=WORKLOAD.seed, jobs=WORKLOAD.jobs)
    report_json = suite.render_json(result)
    report_csv = suite.render_csv(result)
    return report_json, report_csv, time.perf_counter() - t0


def main() -> None:
    _check_source()
    mode = sys.argv[3]
    out = {"setup_s": SETUP_S, "setup_wall_s": SETUP_WALL_S}
    if mode == "setup":
        print(json.dumps(out))
        return
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        # Built before install, so the kernel calls the unwrapped eigvalsh.
        gauge = Gauge(with_numpy=True, span=tracer.span)
        tracer.install()
        with tracer.span("bench.pass"):
            gauge.start()
            report_json, report_csv, wall_s = _run_pass()
            gauge.stop()
        tracer.uninstall()
    else:
        gauge = Gauge(with_numpy=True)
        gauge.start()
        report_json, report_csv, wall_s = _run_pass()
        gauge.stop()
    out["wall_s"] = gauge.reference_s(wall_s)
    out["wall_raw_s"] = wall_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["digest"] = hashlib.sha256(report_json.encode()).hexdigest()
    out.update(_audit(report_json, report_csv))
    if tracer is not None:
        from layers import layer_metrics

        out["layers"] = layer_metrics(tracer, sys.argv[4] if len(sys.argv) > 4 else None)
    print(json.dumps(out))


if __name__ == "__main__":
    main()

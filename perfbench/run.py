"""extraction-lab benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload paper-table-1 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Each workload fixes its suite seed (see ``workloads.py``);
``--seed`` is accepted and printed but does not change the inputs.

Each pass runs in a fresh interpreter (``worker.py``) through the path
``extraction-lab verify`` takes: ``load_config`` -> ``run_suite`` ->
``render_json``/``render_csv``.  Passes repeat, a pass being started only
while it is expected to end within ``--seconds``, and at least two run so
that their reports can be compared byte for byte.

``--trace 0`` reports the end-to-end metrics, with tracing off:
  wall_s          median time of one pass (run_suite + both renders)
  setup_s         median time a fresh process takes to import
                  extraction_lab and load the workload config
  peak_rss_mb     median peak resident memory of the pass processes
Both times are rescaled to a reference machine speed by the gauge of
``calibrate.py``, which samples the speed during the block it times; the
raw wall times are printed beside them.
  converged_frac  1 - unconverged_frac: rows whose flags hold no
                  ``converged*: false``, over rows carrying such a flag
                  (1.0 when no row carries one)
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``layers.py`` plus ``trace.overhead_s``, the traced
minus the untraced median ``wall_s``, both at reference speed.  Per-layer
times are raw wall-clock times.

Correctness, checked on every run: each pass produces the workload's row
count and every row satisfies measured <= epsilon + 1e-9; all passes give
byte-identical report.json; traced passes give the untraced digest; the
exact counts of repeated traced passes agree.  Rows that fail, are lost
to a crashed pass or come from a pass whose report differs count as
failed.  For paper-table-1 seed 42 the digest is also compared with the
pinned sha256 and the outcome is printed; it does not count as failure.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import PINNED_DIGESTS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_LIMIT_S = 170.0          # a run must end within 180 s, whatever --seconds says
SETUP_SAMPLES = 9            # fresh processes timed for setup_s, pass workers included
# Exact counts that must repeat between traced passes.
EXACT_COUNTS = (
    "entropies.h_min_cond.iterations", "entropies.h_min_cond.cap_hits",
    "entropies.h_min_cond.unconverged", "entropies.h2_cond.iterations",
    "entropies.h2_cond.cap_hits", "entropies.h2_cond.unconverged",
    "extractors.evals", "gf2.gf2_matvec.calls", "numpy.linalg.eig_calls",
)


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, "-I", str(BENCH_DIR / "worker.py"), str(ROOT), workload, mode]
    if mode == "trace":
        cmd.append(str(ROOT / ".bench_out" / f"spans-{workload}.npz"))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("run time limit reached")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker exceeded the run time limit") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError(f"{mode} worker printed no result")
    return json.loads(lines[-1])


class Passes:
    """Collected pass results and the row accounting shared by both modes."""

    def __init__(self, workload):
        self.workload = workload
        self.ok: list[dict] = []
        self.lost = 0            # passes that crashed or were inconsistent
        self.errors: list[str] = []

    def add(self, mode: str, deadline: float) -> dict | None:
        try:
            res = run_worker(self.workload.name, mode, deadline)
        except (WorkerError, ValueError) as exc:
            self.lost += 1
            self.errors.append(str(exc))
            return None
        if res["rows"] != self.workload.rows or not res["consistent"]:
            self.lost += 1
            self.errors.append(f"pass produced {res['rows']} rows (expected "
                               f"{self.workload.rows}) or inconsistent reports")
            return None
        self.ok.append(res)
        return res

    def digests(self) -> list[str]:
        return [r["digest"] for r in self.ok]

    def accounting(self) -> tuple[int, int, bool]:
        rows = self.workload.rows
        attempted = rows * (len(self.ok) + self.lost)
        failed = rows * self.lost + sum(r["failed_rows"] for r in self.ok)
        digests = self.digests()
        if digests:
            first = digests[0]
            differing = sum(1 for d in digests if d != first)
            failed += rows * differing
        deterministic = len(set(digests)) == 1 and len(digests) >= 2
        return attempted, failed, deterministic


def keep_going(started: float, durations: list[float], seconds: float,
               minimum: int) -> bool:
    """Start another pass only if it is expected to end within ``seconds``."""
    if len(durations) < minimum:
        return True
    elapsed = time.monotonic() - started
    return elapsed + statistics.median(durations) <= seconds


def convergence(passes: list[dict]) -> tuple[int, int]:
    return (sum(r["unconverged_rows"] for r in passes),
            sum(r["flagged_rows"] for r in passes))


def describe_rows(passes: Passes, attempted: int, failed: int,
                  deterministic: bool) -> list[str]:
    wl = passes.workload
    unconv, flagged = convergence(passes.ok)
    lines = [f"  failed_frac       {failed / attempted:.6g} ratio   ({failed}/{attempted} rows "
             f"failed, lost or non-deterministic)"]
    if flagged:
        lines.append(f"  unconverged_frac  {unconv / flagged:.6g} ratio   ({unconv}/{flagged} "
                     f"rows carrying a converged* flag; row-based, so it undercounts: "
                     f"b8-weak-quantum drops its flags and rows carry no gap)")
    else:
        lines.append("  unconverged_frac  n/a   (no row carries a converged* flag)")
    digests = passes.digests()
    lines.append(f"  report.json sha256 {digests[0] if digests else '-'}: "
                 f"{'identical across' if deterministic else 'DIFFERS between'} "
                 f"{len(digests)} passes")
    pinned = PINNED_DIGESTS.get((wl.suite, wl.seed))
    if pinned is not None and digests:
        match = all(d == pinned for d in digests)
        lines.append(f"  pinned digest {pinned[:12]}... ({wl.suite} seed {wl.seed}): "
                     f"{'match' if match else 'MISMATCH'} (recorded, not counted as failure)")
    for err in passes.errors:
        lines.append(f"  error: {err}")
    return lines


def end_to_end(wl, seconds: float, deadline: float) -> tuple:
    setups: list[dict] = []
    setup_errors: list[str] = []
    passes = Passes(wl)
    started = time.monotonic()
    durations: list[float] = []
    while keep_going(started, durations, seconds, 2):
        t0 = time.monotonic()
        res = passes.add("pass", deadline)
        durations.append(time.monotonic() - t0)
        if res is not None:
            setups.append(res)
    while len(setups) < SETUP_SAMPLES:
        try:
            setups.append(run_worker(wl.name, "setup", deadline))
        except WorkerError as exc:
            setup_errors.append(str(exc))
            break
    if not passes.ok or not setups:
        raise WorkerError("; ".join(passes.errors + setup_errors) or "no pass completed")
    attempted, failed, deterministic = passes.accounting()
    walls = [r["wall_s"] for r in passes.ok]
    raw_walls = [r["wall_raw_s"] for r in passes.ok]
    unconv, flagged = convergence(passes.ok)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes.ok), "MB"),
        "converged_frac": (1.0 - unconv / flagged if flagged else 1.0, "ratio"),
    }
    lines = [f"workload {wl.name}, suite seed {wl.seed}, jobs {wl.jobs}: {len(walls)} "
             f"passes, {len(setups)} fresh-process set-ups, tracing off",
             f"  wall_s            {metrics['wall_s'][0]:.4f} s       median of {len(walls)} "
             f"passes at reference speed (too few for a tail percentile with 10 "
             f"beyond it): " + " ".join(f"{w:.4f}" for w in walls),
             f"                    raw wall time {statistics.median(raw_walls):.4f} s: "
             + " ".join(f"{w:.4f}" for w in raw_walls),
             f"  setup_s           {metrics['setup_s'][0]:.4f} s       median of "
             f"{len(setups)} fresh processes at reference speed; raw "
             f"{statistics.median(r['setup_wall_s'] for r in setups):.4f} s",
             f"  peak_rss_mb       {metrics['peak_rss_mb'][0]:.2f} MB     median of "
             f"{len(walls)} pass processes",
             f"  converged_frac    {metrics['converged_frac'][0]:.6g} ratio"]
    lines += describe_rows(passes, attempted, failed, deterministic)
    lines += [f"  error: {e}" for e in setup_errors]
    correct = failed == 0 and deterministic and not setup_errors
    return correct, attempted, failed, metrics, lines


def traced(wl, seconds: float, deadline: float) -> tuple:
    plain = Passes(wl)
    traced_passes = Passes(wl)
    started = time.monotonic()
    durations: list[float] = []
    while keep_going(started, durations, seconds, 1):
        t0 = time.monotonic()
        plain.add("pass", deadline)
        traced_passes.add("trace", deadline)
        durations.append(time.monotonic() - t0)
    if not traced_passes.ok or not plain.ok:
        raise WorkerError("; ".join(plain.errors + traced_passes.errors) or "no pass completed")
    a1, f1, _ = plain.accounting()
    a2, f2, _ = traced_passes.accounting()
    attempted, failed = a1 + a2, f1 + f2
    digests = set(plain.digests() + traced_passes.digests())
    if len(digests) != 1:
        failed += wl.rows * len(traced_passes.ok)
    layer_runs = [r["layers"] for r in traced_passes.ok]
    repeat = all(run[k] == layer_runs[0][k] for run in layer_runs for k in EXACT_COUNTS)
    metrics = {}
    for key in layer_runs[0]:
        values = [run[key] for run in layer_runs]
        unit = "s" if key.endswith("_s") else "bits" if key.endswith("_bits") else "count"
        metrics[key] = (statistics.median(values), unit)
    untraced_wall = statistics.median(r["wall_s"] for r in plain.ok)
    traced_wall = statistics.median(r["wall_s"] for r in traced_passes.ok)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    lines = [f"workload {wl.name}, suite seed {wl.seed}, jobs {wl.jobs}: "
             f"{len(layer_runs)} traced and {len(plain.ok)} untraced passes",
             f"  wall_s at reference speed: untraced {untraced_wall:.4f} s, traced "
             f"{traced_wall:.4f} s, trace.overhead_s {traced_wall - untraced_wall:.4f} s",
             f"  raw wall time: untraced "
             f"{statistics.median(r['wall_raw_s'] for r in plain.ok):.4f} s, traced "
             f"{statistics.median(r['wall_raw_s'] for r in traced_passes.ok):.4f} s",
             f"  traced report digest equals untraced: {'yes' if len(digests) == 1 else 'NO'}",
             f"  exact counts repeat across traced passes: "
             + (f"{'yes' if repeat else 'NO'} ({len(layer_runs)} passes)"
                if len(layer_runs) > 1 else "not checked (one traced pass)")]
    lines += describe_rows(traced_passes, attempted, failed, len(digests) == 1)
    lines.append("  call-based solver counts (every h_min_cond/h2_cond result, flagged or not):")
    for fname in ("h_min_cond", "h2_cond"):
        key = f"entropies.{fname}"
        lines.append(f"    {key}: {int(metrics[key + '.calls'][0])} calls, "
                     f"{int(metrics[key + '.solver_calls'][0])} solver runs, "
                     f"{int(metrics[key + '.unconverged'][0])} unconverged, "
                     f"{int(metrics[key + '.cap_hits'][0])} cap hits, "
                     f"max gap {metrics[key + '.max_gap_bits'][0]:.3g} bits")
    lines.append("  numpy.linalg *_dim3 are computed from array shapes, not measured flops")
    correct = failed == 0 and len(digests) == 1 and repeat
    return correct, attempted, failed, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="recorded only: each workload fixes its own suite seed")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "extraction_lab" / "__init__.py").is_file():
        print(f"error: no extraction_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    run = traced if args.trace else end_to_end
    try:
        correct, attempted, failed, metrics, lines = run(wl, args.seconds, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"--seed {args.seed}: recorded only; the workload's inputs are fixed")
    print("\n".join(lines))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

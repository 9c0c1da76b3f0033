"""The benchmark's workloads: which suite each runs, and with what.

Every workload goes through the path ``extraction-lab verify`` takes:
``load_config`` on a built-in suite name or a JSON config file, then
``run_suite`` and both report renderers.

The suite seed is part of each workload and the benchmark's ``--seed``
does not change it.  The cost of a suite seed depends on how many solver
runs hit the iteration cap: paper-table-1 passes at suite seeds 1..10
ranged from 7.5 to 13.6 s, more than any bound the benchmark could set
on ``wall_s``.  Fixed inputs also let every paper-table-1 run compare its
report with the pinned digest.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# sha256 of report.json for `verify --suite paper-table-1 --seed 42`.
PINNED_DIGESTS = {
    ("paper-table-1", 42): "273b8b04699df9df70470e7db2f1d1fe2264d50e9a9a498849abdf65ffe0c66d",
}


@dataclass(frozen=True)
class Workload:
    name: str
    suite: str          # built-in suite name, or a config file under configs/
    seed: int           # global suite seed, fixed
    jobs: int
    rows: int           # report rows one pass must produce
    why: str

    def suite_arg(self) -> str:
        """The ``--suite`` argument ``verify`` would be given."""
        path = CONFIG_DIR / self.suite
        return str(path) if self.suite.endswith(".json") else self.suite


WORKLOADS = {w.name: w for w in (
    Workload("paper-table-1", "paper-table-1", 42, 1, 4784,
             "the built-in suite users run; solver-bound, so h_min_cond and its "
             "eigen calls dominate"),
    Workload("classical-exhaustive", "classical-exhaustive.json", 0, 1, 554,
             "32x32 alphabets with classical side information: extractor evaluation, "
             "output states and distance do the work, the solver none"),
    Workload("small-state-mix", "small-state-mix.json", 3, 1, 3000,
             "thousands of 1-4 dimensional states, where per-call Python overhead "
             "dominates; the only workload that calls h2_cond"),
    Workload("paper-table-1-jobs2", "paper-table-1", 42, 2, 4784,
             "paper-table-1 with jobs=2, the only workload that runs the threaded "
             "dispatch in harness.suite"),
)}

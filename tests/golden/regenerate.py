"""The golden cases of the byte contract, and the script that records them.

Each case runs the CLI in this process on a small config (n_train=32,
n_val=16, every other field at its default) at seeds 7 and 0:
- `run` with the schedules [[inf, 1]] (full) and [[4, 1], [inf, inf]]
  (frozen);
- `grid --rhos 1,2,5,10,inf --switch 4`.

A case's stable files are the curves.csv, ledger.csv, summary.csv and
checkpoint.bin of each run, a grid's grid_summary.csv and delta_map.csv,
and what a grid prints. bytes.json holds the sha1 of each, the
final_map50 of each run, and the numpy and BLAS builds that made them.
tests/test_golden.py regenerates every case and names each file whose
hash moved.

A change that moves bytes on purpose rewrites bytes.json with

    python tests/golden/regenerate.py

which prints each run's final_map50 drift against the old record.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import select
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent.parent / "src"))  # the package this checkout holds

import numpy as np

from freezelab import experiment
from freezelab.cli import main as freezelab
from freezelab.experiment import read_summary_csv

RECORD = HERE / "bytes.json"
SCRIPT = "tests/golden/regenerate.py"
SEEDS = (7, 0)
RUNS = {"full": [["inf", 1]], "frozen": [[4, 1], ["inf", "inf"]]}
RUN_FILES = ("curves.csv", "ledger.csv", "summary.csv", "checkpoint.bin")
GRID_FILES = ("grid_summary.csv", "delta_map.csv")
RHOS = ("1", "2", "5", "10", "inf")


def environment() -> dict:
    """The builds the bits depend on: numpy, and the BLAS it calls."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _cli(argv: list) -> str:
    """What `freezelab <argv>` prints; a nonzero exit raises with its diagnostic."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = freezelab(argv)
    if code != 0:
        raise RuntimeError(f"freezelab {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


@contextlib.contextmanager
def _processes(spare_cores: int):
    """Let a walk start `spare_cores` workers, each of which says it is
    ready before the walk trains, so that the workers train branches."""
    real_spare, real_start = experiment._spare_cores, experiment._Pool.start

    def start(pool, n):
        real_start(pool, n)
        for worker in pool.workers:
            if not select.select([worker.back], [], [], 60)[0]:
                raise RuntimeError("a worker sent nothing for 60 s")

    experiment._spare_cores, experiment._Pool.start = (lambda: spare_cores), start
    try:
        yield
    finally:
        experiment._spare_cores, experiment._Pool.start = real_spare, real_start


def _config(root: Path, seed: int, **fields) -> str:
    path = root / "config.json"
    path.write_text(json.dumps({"seed": seed, "n_train": 32, "n_val": 16, **fields}))
    return str(path)


def golden_bytes(root: Path, spare_cores: int) -> tuple[dict, dict]:
    """Run every case under the directory `root`, the walk allowed
    `spare_cores` workers. Returns the sha1 of each stable file and the
    final_map50 of each run, keyed by their paths under `root`; a grid's
    stdout is the file grid_<seed>.stdout, its output root spelled <out>."""
    hashes, final = {}, {}

    def record(paths) -> None:
        for path in paths:
            hashes[path.relative_to(root).as_posix()] = hashlib.sha1(path.read_bytes()).hexdigest()
            if path.name == "summary.csv":
                final[path.parent.relative_to(root).as_posix()] = read_summary_csv(path)["final_map50"]

    with _processes(spare_cores):
        for seed in SEEDS:
            for name, schedule in RUNS.items():
                out = root / f"run_{seed}_{name}"
                _cli(["run", "--config", _config(root, seed, schedule=schedule), "--out", str(out)])
                record(out / name for name in RUN_FILES)
            out, stdout = root / f"grid_{seed}", root / f"grid_{seed}.stdout"
            printed = _cli(["grid", "--config", _config(root, seed), "--rhos", ",".join(RHOS), "--switch", "4",
                            "--seeds", str(seed), "--out", str(out)])
            stdout.write_text(printed.replace(str(out), "<out>"))
            record([stdout, *(out / name for name in GRID_FILES),
                    *(out / f"seed_{seed}" / f"rho_{rho}" / name for rho in RHOS for name in RUN_FILES)])
    return hashes, final


def main() -> int:
    """Record the cases at 0 and 1 spare cores, which must agree."""
    sets = []
    for spare_cores in (0, 1):
        with tempfile.TemporaryDirectory() as root:
            sets.append(golden_bytes(Path(root), spare_cores))
    (hashes, final), (pooled, _) = sets
    if pooled != hashes:
        print(f"the bytes depend on the core count: {sorted(k for k in hashes if hashes[k] != pooled.get(k))}",
              file=sys.stderr)
        return 1
    old = json.loads(RECORD.read_text())["final_map50"] if RECORD.exists() else {}
    for run, value in final.items():
        if run in old and old[run] != value:
            print(f"{run}: final_map50 {old[run]!r} -> {value!r} ({value - old[run]:+.6f})")
    RECORD.write_text(json.dumps({"environment": environment(), "sha1": hashes, "final_map50": final},
                                 indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

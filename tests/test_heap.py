"""The process-wide heap setting of experiment._hold_heap: what it sets,
that it stops an unfrozen step from faulting its temporaries back in,
and that it changes no output byte.

The subprocess tests start a fresh interpreter, since the setting lasts
for the life of a process and a pytest process may already hold it."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from freezelab import experiment

SRC = Path(__file__).resolve().parent.parent / "src"
STABLE_FILES = ("curves.csv", "ledger.csv", "summary.csv", "checkpoint.bin")
GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"

# Minor page faults per unfrozen step after the first epoch. Without the
# setting a default-arch step read about 550; with it, single digits.
MAX_FAULTS_PER_STEP = 64

FAULTS_CHILD = """
import math, resource
from freezelab import experiment

train_epoch = experiment.train_epoch
per_step = []

def counted(detector, scenes, epoch, freeze, *args, **kwargs):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out = train_epoch(detector, scenes, epoch, freeze, *args, **kwargs)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    if epoch >= 1 and not freeze:
        per_step.append(faults / math.ceil(len(scenes) / kwargs["sgd_cfg"].batch_size))
    return out

experiment.train_epoch = counted
experiment.run_experiment(experiment.default_config(n_train=32, n_val=8, total_epochs=3))
print(max(per_step))
"""

BYTES_CHILD = """
import sys
from freezelab import experiment
from freezelab.schedule import ScheduleSpec

if sys.argv[1] == "plain":
    experiment._hold_heap = lambda: None
for name, phases in (("full", [(float("inf"), 1)]), ("frozen", [(4, 1), (float("inf"), float("inf"))])):
    experiment.run_experiment(experiment.default_config(
        n_train=32, n_val=8, total_epochs=6, eval_every=3, schedule=ScheduleSpec(phases),
        output_dir=sys.argv[2] + "/" + name))
"""


def _child(code, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class FakeLibc:
    def __init__(self):
        self.calls = []

    def mallopt(self, option, value):
        self.calls.append((option, value))
        return 1


@pytest.fixture
def fresh(monkeypatch):
    """A process state in which the heap setting has not been made."""
    monkeypatch.setattr(experiment, "_heap_held", False)


def test_hold_heap_sets_both_thresholds_once(fresh, monkeypatch):
    libc = FakeLibc()
    monkeypatch.setattr(experiment, "_libc", lambda: libc)
    experiment._hold_heap()
    experiment._hold_heap()
    assert libc.calls == [(-3, 32 << 20), (-1, 64 << 20)]


def test_hold_heap_does_nothing_without_mallopt(fresh, monkeypatch):
    monkeypatch.setattr(experiment, "_libc", lambda: object())
    experiment._hold_heap()
    assert experiment._heap_held


def test_there_is_no_libc_to_set_off_linux(monkeypatch):
    monkeypatch.setattr(sys, "platform", "darwin")
    assert experiment._libc() is None


def test_run_experiments_holds_the_heap_before_the_data(monkeypatch):
    order = []
    monkeypatch.setattr(experiment, "_hold_heap", lambda: order.append("heap"))
    real = experiment.generate_dataset
    monkeypatch.setattr(experiment, "generate_dataset", lambda *a: order.append("data") or real(*a))
    experiment.run_experiment(experiment.default_config(n_train=2, n_val=0, total_epochs=1))
    assert order == ["heap", "data"]


@pytest.mark.skipif(not GLIBC, reason="measures glibc's heap policy through ru_minflt")
def test_an_unfrozen_step_does_not_fault_its_temporaries_back_in():
    assert float(_child(FAULTS_CHILD)) < MAX_FAULTS_PER_STEP


def test_the_heap_setting_changes_no_output_byte(tmp_path):
    for mode in ("held", "plain"):
        _child(BYTES_CHILD, mode, str(tmp_path / mode))
    for run in ("full", "frozen"):
        for name in STABLE_FILES:
            held = (tmp_path / "held" / run / name).read_bytes()
            assert held == (tmp_path / "plain" / run / name).read_bytes(), f"{run}/{name}"

"""A walk whose runs part trains parked branches in worker processes.

Every test here forces one worker (two processes) on the default grid
shape: 16 epochs, switch 4, periods 1, 2, 5, 10 and inf, with 8 train
and 4 val scenes. The oracles are independent runs and the walk pinned
to one process: the run directories, what `grid` prints and writes, and
the order of results must not depend on the process count. The other
tests check that every way out of a pooled walk leaves no worker
process and no parked file behind.
"""

import math
import os
import select
import signal
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from freezelab import experiment
from freezelab.cli import main
from freezelab.data import SceneConfig
from freezelab.experiment import default_config, plan_ledger, run_experiment, run_experiments, save_config
from freezelab.schedule import ScheduleSpec, format_rho

RUN_FILES = ("config.json", "curves.csv", "ledger.csv", "summary.csv", "checkpoint.bin")
RHOS = (1, 2, 5, 10, math.inf)
LABELS = [f"rho_{format_rho(rho)}" for rho in RHOS]
# The default grid's trie: 56 epochs, 25 of them unfrozen.
TRIE_EPOCHS = 56


def _base():
    return default_config(total_epochs=16, eval_every=4, n_train=8, n_val=4, scene=SceneConfig(seed=0))


def _cfgs(root):
    return [replace(_base(), schedule=ScheduleSpec([(4, 1), (math.inf, rho)]),
                    output_dir=os.path.join(str(root), label)) for rho, label in zip(RHOS, LABELS)]


def _processes(monkeypatch, n):
    """Let the walk use n processes: itself and n - 1 workers, each of
    which has sent its ready message before the walk's first epoch, so
    that what a worker trains does not depend on how fast it starts.
    The wait watches the pipe and reads nothing from it."""
    monkeypatch.setattr(experiment, "_spare_cores", lambda: n - 1)
    real_start = experiment._Pool.start

    def start(self, count):
        real_start(self, count)
        for worker in self.workers:
            assert select.select([worker.back], [], [], 60)[0], "a worker sent nothing for 60 s"

    monkeypatch.setattr(experiment._Pool, "start", start)


@pytest.fixture
def temp_root(tmp_path, monkeypatch):
    """The directory that holds the walk's fork directory, which must be
    empty once the walk is over."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root


@pytest.fixture
def workers(monkeypatch):
    """The worker processes the walks start, as they start them."""
    started = []
    real_start = experiment._Pool.start

    def start(self, n):
        real_start(self, n)
        started.extend(self.workers)

    monkeypatch.setattr(experiment._Pool, "start", start)
    return started


def _clean(temp_root):
    """No child process is left, not even one that was never reaped, and
    no parked file."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(temp_root.iterdir()) == []


def _grid(tmp_path, out, capsys):
    cfg_path = tmp_path / "cfg.json"
    save_config(_base(), cfg_path)
    capsys.readouterr()
    code = main(["grid", "--config", str(cfg_path), "--rhos", "1,2,5,10,inf", "--switch", "4",
                 "--out", str(tmp_path / out)])
    return code, capsys.readouterr()


def _count_epochs(monkeypatch, fail_at=None, error=RuntimeError):
    """Wrap experiment.train_epoch in this process, which a worker does not
    see; return the epochs it saw. With fail_at, the call of that number
    raises `error` instead."""
    seen = []
    real = experiment.train_epoch

    def counted(*args, **kwargs):
        seen.append(args[2])
        if len(seen) == fail_at:
            raise error("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(experiment, "train_epoch", counted)
    return seen


def test_a_pooled_grid_writes_the_bytes_of_independent_runs(tmp_path, monkeypatch, capsys, temp_root):
    _processes(monkeypatch, 2)
    seen = _count_epochs(monkeypatch)
    assert _grid(tmp_path, "grid", capsys)[0] == 0
    # the worker trained some of the trie's epochs
    assert 4 < len(seen) < TRIE_EPOCHS
    _clean(temp_root)
    cfgs = _cfgs(tmp_path / "alone")
    baseline = run_experiment(cfgs[0])
    for cfg in cfgs[1:]:
        run_experiment(cfg, baseline_ledger=baseline.ledger)
    for label in LABELS:
        for name in RUN_FILES:
            pooled = (tmp_path / "grid" / "seed_0" / label / name).read_bytes()
            alone = (tmp_path / "alone" / label / name).read_bytes()
            if name == "config.json":  # differs only by output_dir
                pooled = pooled.replace(str(tmp_path / "grid" / "seed_0").encode(), b"ROOT")
                alone = alone.replace(str(tmp_path / "alone").encode(), b"ROOT")
            assert pooled == alone, (label, name)


def test_a_pooled_grid_prints_and_writes_what_one_process_does(tmp_path, monkeypatch, capsys, temp_root):
    outputs = {}
    for n in (1, 2):
        _processes(monkeypatch, n)
        code, captured = _grid(tmp_path, f"grid{n}", capsys)
        assert code == 0 and captured.err == ""
        outputs[n] = [captured.out.replace(str(tmp_path / f"grid{n}"), "ROOT")]
        outputs[n] += [(tmp_path / f"grid{n}" / name).read_bytes()
                       for name in ("grid_summary.csv", "delta_map.csv")]
    assert outputs[1] == outputs[2]
    _clean(temp_root)


def test_a_pooled_walk_yields_results_in_the_one_process_order(tmp_path, monkeypatch, temp_root):
    orders = {}
    for n in (1, 2):
        _processes(monkeypatch, n)
        orders[n] = []
        for result in run_experiments([(cfg, None) for cfg in _cfgs(tmp_path / str(n))]):
            # a result's run directory is written when it is yielded
            assert (tmp_path / str(n) / os.path.basename(result.config.output_dir) / "checkpoint.bin").exists()
            assert sorted(os.listdir(tmp_path / str(n))) == sorted(orders[n] + [
                os.path.basename(result.config.output_dir)])
            orders[n].append(os.path.basename(result.config.output_dir))
    # frozen-next branches first; rho=2 and rho=1 part last
    assert orders[1] == orders[2] == ["rho_inf", "rho_10", "rho_5", "rho_2", "rho_1"]
    _clean(temp_root)


def test_a_result_detector_holds_its_runs_parameters(tmp_path, monkeypatch, temp_root):
    _processes(monkeypatch, 2)
    cfgs = _cfgs(tmp_path / "pooled")
    for result in run_experiments([(cfg, None) for cfg in cfgs]):
        alone = run_experiment(replace(result.config, output_dir=None))
        assert result.records == alone.records
        for (pid, a), (_, b) in zip(result.detector.parameters(), alone.detector.parameters()):
            assert a.data.tobytes() == b.data.tobytes(), (result.config.output_dir, pid)
    _clean(temp_root)


def test_a_pooled_walk_carries_only_measured_pairs(tmp_path, monkeypatch, temp_root):
    # What crosses a pipe or waits in the queue is a parameter file named
    # "<run>-<epochs trained>.bin" and one (mean_loss, val_map50) pair per
    # trained epoch; the records are made from those and the plan. Every
    # process parks a branch only where its runs train unfrozen next, or
    # at its leaf, which then holds a pair for every epoch.
    carried = []
    received = []  # the kinds of the workers' messages, and whether a park was a leaf's
    real_receive, real_park = experiment._receive, experiment.TrainState.park

    def receive(fd):
        kind, body = message = real_receive(fd)
        if kind == "park":
            (path, measured), _ = body
            carried.append((path, list(measured)))
        received.append((kind, kind == "park" and len(body[0][1]) == _base().total_epochs))
        return message

    def park(self, path):
        parked = real_park(self, path)
        carried.append((parked[0], list(parked[1])))  # copied, since a state resumed from it goes on
        return parked

    records = {}
    for n in (2, 1):
        _processes(monkeypatch, n)
        monkeypatch.setattr(experiment, "_receive", receive)
        monkeypatch.setattr(experiment.TrainState, "park", park)
        results = run_experiments([(cfg, None) for cfg in _cfgs(tmp_path / str(n))])
        records[n] = [(os.path.basename(r.config.output_dir), r.records) for r in results]
    # a worker parked split sides and finished leaves of its own
    assert {("park", False), ("park", True)} <= set(received)
    assert records[2] == records[1]
    cfg = _base()
    ledgers = [plan_ledger(c) for c in _cfgs(tmp_path)]
    for path, measured in carried:
        run, epochs = map(int, os.path.basename(path)[:-len(".bin")].split("-"))
        assert len(measured) == epochs and 0 < epochs <= cfg.total_epochs
        if epochs < cfg.total_epochs:
            assert not ledgers[run].records[epochs].frozen, path
        for epoch, (mean_loss, val_map50) in enumerate(measured):
            assert type(mean_loss) is float and math.isfinite(mean_loss)
            assert type(val_map50) is (float if cfg.evaluates(epoch) else type(None))
    _clean(temp_root)


@pytest.mark.parametrize("n", [1, 2])
def test_a_finished_leafs_files_leave_the_fork_directory_once_its_last_run_is_yielded(tmp_path, monkeypatch,
                                                                                     temp_root, n):
    # A finished leaf is parked as "<first run>-<epochs>.bin" and its
    # velocity file. A copy of rho=inf shares its leaf, so that leaf is
    # yielded twice. At every yield the yielded run's leaf still holds both
    # files, and every leaf whose runs have all been yielded holds none.
    _processes(monkeypatch, n)
    cfgs = _cfgs(tmp_path / "runs")
    cfgs.append(replace(cfgs[-1], output_dir=None))
    leaves = experiment._plan_branch([plan_ledger(c) for c in cfgs], list(range(len(cfgs))), 0)[0]
    assert [len(leaf) for leaf in leaves] == [2, 1, 1, 1, 1]

    def files(leaf):
        path = f"{leaf[0]}-{_base().total_epochs}.bin"
        return {path, path + ".velocity"}

    yielded = []
    for result in run_experiments([(cfg, None) for cfg in cfgs]):
        [fork_dir] = temp_root.iterdir()
        held = set(os.listdir(fork_dir))
        run = next(i for i, cfg in enumerate(cfgs) if cfg is result.config)
        [leaf] = [leaf for leaf in leaves if run in leaf]
        assert files(leaf) <= held, (run, held)
        for done in leaves:
            if done is not leaf and set(done) <= set(yielded):
                assert not files(done) & held, (run, done, held)
        yielded.append(run)
    assert sorted(yielded) == list(range(len(cfgs)))
    _clean(temp_root)


def test_a_walk_that_is_closed_after_its_first_result_stops_its_workers(tmp_path, monkeypatch, temp_root,
                                                                       workers):
    _processes(monkeypatch, 2)
    walk = run_experiments([(cfg, None) for cfg in _cfgs(tmp_path / "runs")])
    first = next(walk)
    [worker] = workers
    assert os.waitpid(worker.pid, os.WNOHANG) == (0, 0)  # still running
    walk.close()
    _clean(temp_root)
    assert os.listdir(tmp_path / "runs") == [os.path.basename(first.config.output_dir)]


@pytest.mark.skipif(not os.path.exists("/proc/self/environ"), reason="reads a process's environment from /proc")
def test_a_worker_runs_one_blas_thread_whatever_this_process_runs(tmp_path, monkeypatch, temp_root, workers):
    _processes(monkeypatch, 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    walk = run_experiments([(cfg, None) for cfg in _cfgs(tmp_path / "runs")])
    next(walk)
    [worker] = workers
    with open(f"/proc/{worker.pid}/environ", "rb") as fh:
        environ = fh.read().split(b"\0")
    walk.close()
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert f"{name}=1".encode() in environ
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    _clean(temp_root)


class Stop(BaseException):
    """What a set-up probe raises at the first epoch: it passes every
    `except Exception`."""


@pytest.mark.parametrize("fail_at,error", [
    (1, Stop),           # the first epoch: the worker is ready and idle
    (6, Stop),           # epoch 5 of {5, 10, inf}: the worker trains {1, 2}
    (6, RuntimeError),
])
def test_an_exception_in_this_process_stops_the_workers(tmp_path, monkeypatch, temp_root, fail_at, error):
    _processes(monkeypatch, 2)
    _count_epochs(monkeypatch, fail_at=fail_at, error=error)
    with pytest.raises(error, match="injected failure"):
        list(run_experiments([(cfg, None) for cfg in _cfgs(tmp_path / "runs")]))
    _clean(temp_root)
    assert not (tmp_path / "runs").exists()


def test_an_exception_in_a_worker_is_raised_here(tmp_path, monkeypatch, temp_root):
    # The first parked branch goes to the worker with a truncated
    # parameter file, which its resume rejects.
    _processes(monkeypatch, 2)
    real_park = experiment.TrainState.park
    paths = []

    def park(self, path):
        parked = real_park(self, path)
        paths.append(path)
        if len(paths) == 1:
            with open(path, "r+b") as fh:
                fh.truncate(100)
        return parked

    monkeypatch.setattr(experiment.TrainState, "park", park)
    with pytest.raises(ValueError, match="is truncated"):
        list(run_experiments([(cfg, None) for cfg in _cfgs(tmp_path / "runs")]))
    _clean(temp_root)


def test_a_worker_that_dies_is_one_error_that_names_its_runs(tmp_path, monkeypatch, capsys, temp_root, workers):
    # Killed at this process's epoch 5. The worker holds {1, 2}, or {2}
    # once its own split at its epoch 5 has handed {1} back, so {2} is
    # named whenever this process reads the death.
    _processes(monkeypatch, 2)
    real = experiment.train_epoch

    def kill_at_epoch_5(*args, **kwargs):
        if args[2] == 5:
            [worker] = workers
            os.kill(worker.pid, signal.SIGKILL)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiment, "train_epoch", kill_at_epoch_5)
    code, captured = _grid(tmp_path, "grid", capsys)
    assert code == 1
    [line] = captured.err.splitlines()
    rho_2 = os.path.join(str(tmp_path / "grid"), "seed_0", "rho_2")
    assert line.startswith("error: a worker process died (exit code -9)") and rho_2 in line
    assert not os.path.exists(os.path.join(rho_2, "checkpoint.bin"))
    assert not os.path.exists(os.path.join(str(tmp_path / "grid"), "seed_0", "rho_1", "checkpoint.bin"))
    _clean(temp_root)


def test_a_walk_with_one_leaf_starts_no_worker(tmp_path, monkeypatch, temp_root):
    _processes(monkeypatch, 2)
    started = []
    monkeypatch.setattr(experiment._Pool, "start", lambda self, n: started.append(n))
    cfgs = _cfgs(tmp_path / "runs")
    run_experiment(cfgs[0])
    list(run_experiments([(cfgs[3], None), (replace(cfgs[4], output_dir=None), None)]))  # 16 epochs: they part
    run_experiment(cfgs[4])
    assert started == [0, 1, 0]
    _clean(temp_root)


def test_a_worker_that_never_becomes_ready_is_never_waited_for(tmp_path, monkeypatch, temp_root):
    # The walk takes its parked branches back, writes the bytes of the
    # one-process walk and ends the worker. The alarm turns a walk that
    # waits for the worker into a failure instead of a hang.
    def too_slow(signum, frame):
        raise TimeoutError("the walk waited for a worker that was never ready")

    monkeypatch.setattr(experiment, "_WORKER_CODE", "import time; time.sleep(60)")
    outputs = {}
    for n in (2, 1):
        monkeypatch.setattr(experiment, "_spare_cores", lambda: n - 1)
        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(30)
        try:
            order = [os.path.basename(r.config.output_dir)
                     for r in run_experiments([(cfg, None) for cfg in _cfgs(tmp_path / str(n))])]
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert order == ["rho_inf", "rho_10", "rho_5", "rho_2", "rho_1"]
        root = str(tmp_path / str(n)).encode()
        outputs[n] = [(tmp_path / str(n) / label / name).read_bytes().replace(root, b"ROOT")
                      for label in LABELS for name in RUN_FILES]
        _clean(temp_root)
    assert outputs[2] == outputs[1]


# A walk in a process that found freezelab through sys.path alone, as a
# script that inserts the source directory does; it prints the results'
# order and how many epochs it trained itself.
FOUND_BY_SYS_PATH = """
import math, select, sys
sys.path.insert(0, sys.argv[1])
from freezelab import experiment
from freezelab.data import SceneConfig
from freezelab.schedule import ScheduleSpec
experiment._spare_cores = lambda: 1
real_start = experiment._Pool.start
def start(self, n):  # wait for each worker's ready message, as the tests do
    real_start(self, n)
    for worker in self.workers:
        select.select([worker.back], [], [], 60)
experiment._Pool.start = start
seen = []
real = experiment.train_epoch
experiment.train_epoch = lambda *args, **kwargs: seen.append(args[2]) or real(*args, **kwargs)
base = experiment.default_config(total_epochs=16, eval_every=4, n_train=8, n_val=4, scene=SceneConfig(seed=0))
if __name__ == "__main__":
    runs = [(experiment.replace(base, schedule=ScheduleSpec([(4, 1), (math.inf, rho)])), None)
            for rho in (1, 2, 5, 10, math.inf)]
    print([r.config.schedule.describe() for r in experiment.run_experiments(runs)], len(seen) < 56)
"""


def test_a_worker_imports_freezelab_from_where_the_walk_did(tmp_path):
    src = Path(experiment.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", FOUND_BY_SYS_PATH, str(src)], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    order, pooled = proc.stdout.rsplit(" ", 1)
    assert pooled.strip() == "True"
    schedules = [ScheduleSpec([(4, 1), (math.inf, rho)]).describe() for rho in (math.inf, 10, 5, 2, 1)]
    assert order == repr(schedules)

"""Training runs that share a freeze prefix once and forking where they part.

The oracle is an independent run_experiment of each config: a forked
grid must write the same bytes into every run directory. The counting
tests check that the walk trains each distinct freeze prefix once and
that a failing walk leaves neither a parked state nor a run directory
that looks complete.
"""

import math
import os
import tempfile
from dataclasses import replace

import pytest

from freezelab import experiment
from freezelab.cli import main
from freezelab.data import SceneConfig, generate_dataset
from freezelab.experiment import (
    RunCache,
    TrainState,
    default_config,
    evaluate_detector,
    plan_ledger,
    run_experiment,
    run_experiments,
    save_config,
    train_epoch,
)
from freezelab.model import build_detector, parameter_groups, plan_detector
from freezelab.optim import OptimState
from freezelab.schedule import ScheduleSpec, format_rho, phase_freeze_signal

RUN_FILES = ("config.json", "curves.csv", "ledger.csv", "summary.csv", "checkpoint.bin")
RHOS = (1, 2, 5, 10, math.inf)


def _base(*, epochs=8, n_train=20, n_val=12, eval_every=2):
    # 20 and 12 scenes in batches of 8 leave a short last batch, so stored
    # features are also gathered into batches of 4.
    return default_config(total_epochs=epochs, eval_every=eval_every, n_train=n_train, n_val=n_val,
                          scene=SceneConfig(seed=0))


def _grid_config(base, seed, rho, switch, out_root):
    return replace(base, seed=seed, scene=replace(base.scene, seed=seed),
                   schedule=ScheduleSpec([(switch, 1), (math.inf, rho)]),
                   output_dir=os.path.join(str(out_root), f"seed_{seed}", f"rho_{format_rho(rho)}"))


def _grid(tmp_path, base, *, seeds="0", switch=4, rhos="1,2,5,10,inf"):
    cfg_path = tmp_path / "cfg.json"
    save_config(base, cfg_path)
    return main(["grid", "--config", str(cfg_path), "--rhos", rhos, "--switch", str(switch),
                 "--seeds", seeds, "--out", str(tmp_path / "grid")])


def _distinct_prefixes(cfgs):
    signals = [tuple(phase_freeze_signal(e, c.schedule) for e in range(c.total_epochs)) for c in cfgs]
    return len({s[: e + 1] for s in signals for e in range(len(s))})


def _one_process(monkeypatch):
    """Pin the walk to this process, where a monkeypatch can watch it: a
    worker is spawned, so it sees no monkeypatch."""
    monkeypatch.setattr(experiment, "_spare_cores", lambda: 0)


def _count_epochs(monkeypatch, fail_at=None):
    """Pin the walk to this process and wrap experiment.train_epoch;
    return the list of (epoch, freeze, samples) it saw, read from the
    positional arguments. With fail_at, the call of that number raises
    instead."""
    _one_process(monkeypatch)
    seen = []
    real = experiment.train_epoch

    def counted(*args, **kwargs):
        seen.append((args[2], args[3], len(args[1])))
        if len(seen) == fail_at:
            raise RuntimeError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(experiment, "train_epoch", counted)
    return seen


def test_forked_grid_writes_the_bytes_of_independent_runs(tmp_path):
    # At 8 epochs, switch 4, rho=10 and rho=inf freeze epochs 4-7 alike:
    # one leaf writes both run directories.
    base = _base()
    assert _grid(tmp_path, base, seeds="0,1") == 0
    for seed in (0, 1):
        cfgs = [_grid_config(base, seed, rho, 4, tmp_path / "alone") for rho in RHOS]
        baseline = run_experiment(cfgs[0])
        for cfg in cfgs[1:]:
            run_experiment(cfg, baseline_ledger=baseline.ledger)
        for rho in RHOS:
            rel = os.path.join(f"seed_{seed}", f"rho_{format_rho(rho)}")
            for name in RUN_FILES:
                forked = (tmp_path / "grid" / rel / name).read_bytes()
                alone = (tmp_path / "alone" / rel / name).read_bytes()
                if name == "config.json":  # differs only by output_dir
                    forked = forked.replace(str(tmp_path / "grid").encode(), b"ROOT")
                    alone = alone.replace(str(tmp_path / "alone").encode(), b"ROOT")
                assert forked == alone, (seed, rho, name)


def test_a_walk_that_forks_at_epoch_0_writes_the_bytes_of_independent_runs(tmp_path, monkeypatch):
    # [inf:1] parts from the other two at epoch 0, before any step, so its
    # parked velocity is empty; [2:inf, inf:1] parts from [inf:inf] at
    # epoch 2 after two frozen epochs, so its parked velocity holds the
    # neck and head only. Each of the three leaves is parked when it
    # finishes, holding all five pairs.
    base = _base(epochs=5)
    schedules = [ScheduleSpec([(math.inf, math.inf)]), ScheduleSpec([(2, math.inf), (math.inf, 1)]),
                 ScheduleSpec([(math.inf, 1)])]
    parked, leaves = [], []
    real_park = experiment.TrainState.park

    def park(self, path):
        # the file is "<first run>-<epoch>.bin"
        epoch = int(os.path.basename(path)[:-len(".bin")].split("-")[1])
        if epoch == base.total_epochs:
            leaves.append(len(self.measured))
        else:
            parked.append(set(self.optim.velocity))
        return real_park(self, path)

    def cfgs(root):
        return [replace(base, schedule=spec, output_dir=str(tmp_path / root / str(i)))
                for i, spec in enumerate(schedules)]

    _one_process(monkeypatch)
    monkeypatch.setattr(experiment.TrainState, "park", park)
    list(run_experiments([(cfg, None) for cfg in cfgs("forked")]))
    monkeypatch.undo()
    backbone = set(parameter_groups(plan_detector(base.arch))["backbone"])
    assert len(parked) == 2 and parked[0] == set()
    assert parked[1] and not parked[1] & backbone
    assert leaves == [base.total_epochs] * len(schedules)
    for cfg in cfgs("alone"):
        run_experiment(cfg)
    for i in range(len(schedules)):
        for name in RUN_FILES:
            forked = (tmp_path / "forked" / str(i) / name).read_bytes()
            alone = (tmp_path / "alone" / str(i) / name).read_bytes()
            if name == "config.json":  # differs only by output_dir
                forked = forked.replace(str(tmp_path / "forked").encode(), b"ROOT")
                alone = alone.replace(str(tmp_path / "alone").encode(), b"ROOT")
            assert forked == alone, (i, name)


def test_grid_trains_each_distinct_freeze_prefix_once(tmp_path, monkeypatch):
    # The default grid's shape: 16 epochs, switch 4, five periods. Its five
    # freeze sequences make a trie of 56 epochs; independent runs train 80.
    base = _base(epochs=16, n_train=8, n_val=4, eval_every=4)
    cfgs = [_grid_config(base, 0, rho, 4, tmp_path) for rho in RHOS]
    assert _distinct_prefixes(cfgs) == 56
    seen = _count_epochs(monkeypatch)
    assert _grid(tmp_path, base) == 0
    assert len(seen) == 56
    assert all(samples == base.n_train for _, _, samples in seen)
    # of the 38 frozen and 42 unfrozen epochs of independent runs, the walk
    # trains 31 and 25
    assert sum(freeze for _, freeze, _ in seen) == 31


@pytest.mark.parametrize("switch,rhos", [(1, "2,3,inf"), (2, "1,4"), (3, "inf")])
def test_train_epoch_calls_equal_the_distinct_prefixes(tmp_path, monkeypatch, switch, rhos):
    base = _base(epochs=6, n_train=8, n_val=4)
    periods = sorted({1} | {math.inf if r == "inf" else int(r) for r in rhos.split(",")})
    cfgs = [_grid_config(base, 0, rho, switch, tmp_path) for rho in periods]
    seen = _count_epochs(monkeypatch)
    assert _grid(tmp_path, base, switch=switch, rhos=rhos) == 0
    assert len(seen) == _distinct_prefixes(cfgs)


def test_grid_prints_each_seeds_runs_in_period_order(tmp_path, capsys):
    base = _base(epochs=6, n_train=8, n_val=4)
    assert _grid(tmp_path, base, seeds="3,1", switch=1) == 0
    lines = capsys.readouterr().out.splitlines()
    runs = [line.split(":")[0] for line in lines if line.startswith("rho=") and "seed=" in line]
    assert runs == [f"rho={r} seed={s}" for s in (3, 1) for r in ("1", "2", "5", "10", "inf")]


# The walk of the 8-epoch grid at switch 4 (18 train_epoch calls): at
# every split the unfrozen side is parked and the heaviest parked branch is
# next. Epochs 0-3 shared; epoch 4 parks {1, 2} and trains {5, 10, inf}
# frozen; epoch 5 parks {5}; {10, inf} finish (call 8) and are yielded;
# {1, 2} resumes (call 9), parks {1} at epoch 5, {2} finishes (call 12);
# {1} resumes and finishes (call 15); {5} is last (calls 16-18). {2} and {1}
# wait for {5}, whose results come first.
@pytest.mark.parametrize("fail_at,finished", [
    (9, ("10", "inf")),     # {5} and {1, 2} parked
    (13, ("10", "inf")),    # {2} finished, waiting for its turn; {5} parked
    (18, ("10", "inf")),    # nothing parked, {2} and {1} waiting; last epoch of rho=5
])
def test_a_failing_walk_leaves_no_parked_state_and_no_unfinished_run(tmp_path, monkeypatch, capsys,
                                                                     fail_at, finished):
    temp_root = tmp_path / "tmp"
    temp_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
    parked = []
    real_park = experiment.TrainState.park

    def park(self, path):
        parked.append(path)
        return real_park(self, path)

    monkeypatch.setattr(experiment.TrainState, "park", park)
    seen = _count_epochs(monkeypatch, fail_at=fail_at)
    assert _grid(tmp_path, _base()) == 1
    assert "injected failure" in capsys.readouterr().err
    assert len(seen) == fail_at and parked
    assert list(temp_root.iterdir()) == []
    for rho in RHOS:
        run_dir = tmp_path / "grid" / "seed_0" / f"rho_{format_rho(rho)}"
        assert (run_dir / "checkpoint.bin").exists() == (format_rho(rho) in finished), rho


def test_a_split_parks_the_unfrozen_side_and_keeps_the_stores(monkeypatch):
    # The default grid's shape, in one process. A branch is parked only at
    # an epoch where its runs train unfrozen, which fills no store, so no
    # store filled for a frozen stretch is dropped by a park: the train
    # store is filled once per frozen stretch of the trie (10 times) and
    # the val store once per evaluation after the backbone moved (11).
    # Each of the five leaves is parked when it finishes, holding all its
    # pairs.
    base = _base(epochs=16, n_train=8, n_val=4, eval_every=4)
    cfgs = [replace(base, schedule=ScheduleSpec([(4, 1), (math.inf, rho)])) for rho in RHOS]
    ledgers = [plan_ledger(cfg) for cfg in cfgs]
    parked_frozen, leaves, filled = [], [], []
    real_park, real_fill = experiment.TrainState.park, experiment._backbone_outputs

    def park(self, path):
        # the file is "<first run>-<epoch>.bin"; a side's runs share the flag
        run, epoch = map(int, os.path.basename(path)[:-len(".bin")].split("-"))
        if epoch == base.total_epochs:
            leaves.append(len(self.measured))
        else:
            parked_frozen.append(ledgers[run].records[epoch].frozen)
        return real_park(self, path)

    def fill(detector, scenes, batch_size):
        filled.append(len(scenes))
        return real_fill(detector, scenes, batch_size)

    _one_process(monkeypatch)
    monkeypatch.setattr(experiment.TrainState, "park", park)
    monkeypatch.setattr(experiment, "_backbone_outputs", fill)
    list(run_experiments([(cfg, None) for cfg in cfgs]))
    assert parked_frozen == [0] * 4
    assert leaves == [base.total_epochs] * len(RHOS)
    assert (filled.count(base.n_train), filled.count(base.n_val)) == (10, 11)


def test_resume_empties_both_stores(tmp_path):
    cfg = _base(epochs=2, n_train=8, n_val=4)
    train_scenes, val_scenes = generate_dataset(cfg.scene, cfg.n_train, cfg.n_val)
    detector = build_detector(cfg.arch, init_seed=cfg.seed)
    state = TrainState(detector, OptimState(), [], RunCache(detector, train_scenes))
    parked = state.park(str(tmp_path / "parked.bin"))
    train_epoch(detector, train_scenes, 0, 1, state.optim,
                lr_cfg=cfg.lr, sgd_cfg=cfg.sgd, seed=cfg.seed, cache=state.cache)
    evaluate_detector(detector, val_scenes, cfg.sgd.batch_size, cache=state.cache)
    assert state.cache.train is not None and state.cache.val is not None
    state.resume(parked)
    assert state.cache.train is None and state.cache.val is None
    assert state.measured == [] and list(tmp_path.iterdir()) == []


def test_stores_are_dropped_before_a_parked_branch_resumes(tmp_path, monkeypatch):
    caches = []
    emptied = []

    class Recorded(experiment.RunCache):
        def __init__(self, detector, *args):
            super().__init__(detector, *args)
            self.detector = detector
            caches.append(self)

    real_restore = experiment.restore_checkpoint

    def restore(detector, path):
        # a resume; a finished leaf is read into a detector of its own
        [cache] = caches
        if detector is cache.detector:
            emptied.append(cache.train is None and cache.val is None)
        return real_restore(detector, path)

    _one_process(monkeypatch)
    monkeypatch.setattr(experiment, "RunCache", Recorded)
    monkeypatch.setattr(experiment, "restore_checkpoint", restore)
    base = _base()
    cfgs = [_grid_config(base, 0, rho, 4, tmp_path) for rho in RHOS]
    order = []
    for result in run_experiments([(cfg, None) for cfg in cfgs]):
        assert (tmp_path / "seed_0" / f"rho_{format_rho(result.config.schedule.rho_at(4))}"
                / "checkpoint.bin").exists()
        order.append(format_rho(result.config.schedule.rho_at(4)))
    # results come frozen side first; rho=10 and rho=inf share the first
    # leaf trained, whose frozen epochs leave both stores filled
    assert order == ["10", "inf", "5", "2", "1"]
    assert emptied == [True, True, True]


def test_runs_trained_together_may_differ_only_in_schedule_and_output_dir():
    base = _base(epochs=2, n_train=8, n_val=0)
    for other in (replace(base, total_epochs=3), replace(base, n_train=9),
                  replace(base, seed=1, scene=replace(base.scene, seed=1))):
        with pytest.raises(ValueError, match="may differ only in schedule and output_dir"):
            list(run_experiments([(base, None), (other, None)]))


def test_runs_trained_together_may_not_share_an_output_dir(tmp_path, monkeypatch):
    # Both used to be trained and yielded, and the one summary.csv held
    # the later run's row.
    base = _base(epochs=3, n_train=8, n_val=4)
    out = str(tmp_path / "run")
    seen = _count_epochs(monkeypatch)
    runs = [(replace(base, schedule=spec, output_dir=out), None)
            for spec in (ScheduleSpec([(math.inf, 1)]), ScheduleSpec([(1, 1), (math.inf, math.inf)]))]
    with pytest.raises(ValueError, match="must write different run directories") as exc:
        list(run_experiments(runs))
    assert out in str(exc.value)
    assert seen == [] and not os.path.exists(out)


def test_runs_trained_together_may_not_reach_one_output_dir_through_a_symlink(tmp_path, monkeypatch):
    # Both used to be trained and yielded, and real/run/summary.csv held
    # the row of the run that named link/run.
    base = _base(epochs=3, n_train=8, n_val=4)
    (tmp_path / "real").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "real")
    seen = _count_epochs(monkeypatch)
    runs = [(replace(base, schedule=spec, output_dir=str(tmp_path / root / "run")), None)
            for spec, root in ((ScheduleSpec([(math.inf, math.inf)]), "real"),
                               (ScheduleSpec([(1, 1), (math.inf, math.inf)]), "link"))]
    with pytest.raises(ValueError, match="must write different run directories") as exc:
        list(run_experiments(runs))
    assert str(tmp_path / "link" / "run") in str(exc.value)
    assert seen == [] and os.listdir(tmp_path / "real") == []


def test_runs_that_share_a_leaf_get_a_detector_each(tmp_path):
    # A consumer may change a result before it asks for the next, so runs
    # that share a leaf share neither its detector nor its records.
    base = _base(epochs=3, n_train=8, n_val=4)
    runs = [(replace(base, output_dir=str(tmp_path / name)), None) for name in ("a", "b")]
    results = run_experiments(runs)
    first = next(results)
    for _, tensor in first.detector.parameters():
        tensor.data[...] = 0.0
    first.records.clear()
    second = next(results)
    assert list(results) == []
    alone = run_experiment(replace(base, output_dir=str(tmp_path / "alone")))
    assert second.records == alone.records
    assert [t.data.tobytes() for _, t in second.detector.parameters()] == \
        [t.data.tobytes() for _, t in alone.detector.parameters()]
    for name in RUN_FILES[1:]:
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes(), name


def test_run_experiments_rejects_a_baseline_of_another_shape_before_training(monkeypatch):
    base = _base(epochs=3, n_train=8, n_val=0)
    seen = _count_epochs(monkeypatch)
    with pytest.raises(ValueError, match="ledgers describe different runs"):
        list(run_experiments([(base, None), (base, plan_ledger(replace(base, total_epochs=2)))]))
    assert seen == []

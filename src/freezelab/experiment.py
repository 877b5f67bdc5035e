"""Config-driven training runs: one schedule in, one directory of CSVs out.

A run is a pure function of its config. Scenes, parameter init, and the
per-epoch batch order all come from counter-based streams keyed by the
config seed, so rerunning a config reproduces every output file byte for
byte. The per-epoch freeze signal is the only thing a schedule changes;
frozen epochs skip the backbone's backward cost in the ledger and leave
its parameters untouched. While the backbone stays frozen its output for
a scene is a constant, so a run computes it once per frozen stretch (see
RunCache); the ledger still charges every frozen epoch its forward pass.
Runs that share a freeze prefix train it once, and where spare cores
exist the branches they part into train in worker processes (see
run_experiments); neither changes an output byte.

This module also writes every table file of a run or grid directory
(curves, ledger, summary, grid summary, delta map) in one CSV format,
and reads a run directory back held to its config's plan; the
checkpoint's binary layout lives in model. ledger.csv holds the planned
ledger's rows, curves.csv its plan's columns plus the measured loss and
mAP (_curves_records), and a reader holds both to the plan alike.
"""

from __future__ import annotations

import csv
import ctypes
import json
import math
import os
import pickle
import signal
import sys
import tempfile
from dataclasses import asdict, astuple, dataclass, field, replace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .autodiff import Tape, Tensor, backward
from .data import Scene, SceneConfig, generate_dataset
from .evaluation import EvalReport, map50
from .flops import FlopsLedger, TimeModel, delta_flops, estimate_training_time
from .model import (
    Detector,
    PredictionGrid,
    backbone_features,
    build_detector,
    decode_predictions,
    default_desk_arch,
    detection_loss,
    detector_forward,
    encode_targets,
    flops_specs,
    load_checkpoint,
    plan_detector,
    restore_checkpoint,
    save_arrays,
    save_checkpoint,
)
from .optim import OptimState, SgdConfig, clip_gradients, sgd_step
from .rng import STREAM_BATCH_SHUFFLE, generator
from .schedule import LrConfig, ScheduleSpec, freeze_signals, lr_at

__all__ = [
    "CONFIG_VERSION",
    "ExperimentConfig",
    "EpochRecord",
    "RunResult",
    "default_config",
    "config_to_dict",
    "config_from_dict",
    "load_config",
    "save_config",
    "RunCache",
    "TrainState",
    "train_epoch",
    "evaluate_detector",
    "plan_ledger",
    "run_experiments",
    "run_experiment",
    "summarize_run",
    "write_table",
    "read_csv_rows",
    "write_curves_csv",
    "read_curves_csv",
    "write_ledger_csv",
    "write_summary_csv",
    "read_summary_csv",
    "write_run_dir",
    "read_run_dir",
    "read_baseline",
    "rebuild_summary",
    "CURVES_COLUMNS",
    "LEDGER_COLUMNS",
    "SUMMARY_COLUMNS",
]

CONFIG_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    total_epochs: int = 16
    eval_every: int = 4
    n_train: int = 256
    n_val: int = 64
    arch: dict = field(default_factory=default_desk_arch)
    scene: SceneConfig = field(default_factory=SceneConfig)
    lr: LrConfig = field(default_factory=LrConfig)
    sgd: SgdConfig = field(default_factory=SgdConfig)
    schedule: ScheduleSpec = field(default_factory=lambda: ScheduleSpec([(math.inf, 1)]))
    time_model: TimeModel = field(default_factory=TimeModel)
    output_dir: Optional[str] = None

    def __post_init__(self):
        if self.total_epochs < 1:
            raise ValueError(f"total_epochs must be >= 1, got {self.total_epochs}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.n_train < 1:
            raise ValueError(f"n_train must be >= 1, got {self.n_train}")
        if self.n_val < 0:
            raise ValueError(f"n_val must be >= 0, got {self.n_val}")
        if self.scene.seed != self.seed:
            raise ValueError("scene seed must equal the experiment seed (one seed drives the whole run)")
        arch = plan_detector(self.arch)
        images = (self.scene.channels, self.scene.image_size, self.scene.image_size)
        if images != arch.input_shape:
            raise ValueError(f"scene images of shape {list(images)} do not fit the arch's "
                             f"input_shape {list(arch.input_shape)}")
        if self.scene.num_classes > arch.num_classes:
            raise ValueError(f"scene.num_classes {self.scene.num_classes} exceeds the arch's "
                             f"num_classes {arch.num_classes}")

    def evaluates(self, epoch: int) -> bool:
        """The evaluation cadence: a run scores val mAP@50 after every
        eval_every-th epoch and after its last, when it has val scenes."""
        return self.n_val > 0 and ((epoch + 1) % self.eval_every == 0 or epoch == self.total_epochs - 1)


default_config = ExperimentConfig


# --------------------------------------------------------------------------
# config (de)serialization: one versioned JSON document


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The config as one JSON-ready dict of fresh objects."""
    return {"version": CONFIG_VERSION, **asdict(cfg), "schedule": cfg.schedule.to_json()}


_KINDS = {int: (int, "an integer"), float: ((int, float), "a number"), dict: (dict, "an object"),
          type(None): ((str, type(None)), "a string or null")}


def _check_kinds(raw: dict, defaults, prefix: str = "") -> None:
    """Every int, float, dict or None-default field in `raw` must have the
    kind of its value in `defaults` (an int passes for a float; a bool is
    not a number; a None default stands for an optional string), and a
    number must be finite (JSON readers take NaN and Infinity)."""
    for key, value in raw.items():
        kind = _KINDS.get(type(getattr(defaults, key)))
        if kind is not None and (isinstance(value, bool) or not isinstance(value, kind[0])):
            raise ValueError(f"config key {prefix + key!r} must be {kind[1]}, got {type(value).__name__}")
        if kind is _KINDS[float] and isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"config key {prefix + key!r} must be a finite number, got {value}")


def _build_section(cls, raw, section: str, **defaults):
    if not isinstance(raw, dict):
        raise ValueError(f"config section {section!r} must be an object, got {type(raw).__name__}")
    unknown = set(raw) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown keys in config section {section!r}: {sorted(unknown)}")
    _check_kinds(raw, cls(), prefix=f"{section}.")
    return cls(**{**defaults, **raw})


def config_from_dict(raw: dict) -> ExperimentConfig:
    """The config a JSON document describes. A key it leaves out takes
    its ExperimentConfig default at every level (a scene seed, the seed)."""
    raw = dict(raw)
    version = raw.pop("version", CONFIG_VERSION)
    if type(version) is not int or version != CONFIG_VERSION:
        raise ValueError(f"unsupported config version {version!r} (this build reads version {CONFIG_VERSION})")

    unknown = set(raw) - set(ExperimentConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    _check_kinds(raw, ExperimentConfig())
    kwargs = dict(raw)
    kwargs["scene"] = _build_section(SceneConfig, raw.get("scene", {}), "scene", seed=raw.get("seed", 0))
    for section, cls in (("lr", LrConfig), ("sgd", SgdConfig), ("time_model", TimeModel)):
        if section in raw:
            kwargs[section] = _build_section(cls, raw[section], section)
    if "schedule" in raw:
        kwargs["schedule"] = ScheduleSpec.from_json(raw["schedule"])
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    """The config in a JSON file. A file that is not a JSON object or not
    a valid config raises one ValueError that names it."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"expected a JSON object, got {type(raw).__name__}")
        return config_from_dict(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    frozen: int
    mean_loss: float
    lr: float  # rate used by the epoch's last batch
    cum_flops: int
    val_map50: Optional[float] = None


@dataclass
class RunResult:
    records: list
    ledger: FlopsLedger
    detector: Detector
    config: ExperimentConfig
    summary: dict  # the summary.csv row, as read_summary_csv returns it


class RunCache:
    """What one run computes once and reuses, for one detector and its
    train/val scenes.

    `targets` holds every train scene's encoded target grid for the whole
    run. `train` and `val` hold every train and val scene's detached
    backbone output, or None while not filled; they are valid only while
    the backbone has not moved since they were filled. Both are emptied
    where the backbone moves: train_epoch drops them at the start of every
    unfrozen epoch, and TrainState.resume before it reads a parked
    branch's parameters back. A frozen epoch that finds `train` empty
    fills it before its first step, an evaluation that finds `val` empty
    fills it, and every frozen step and evaluation reads its rows from
    there. The rows are
    bit-identical to a recomputation in any batch composition, so the
    stores change no output byte.
    """

    def __init__(self, detector: Detector, train_scenes: Sequence[Scene]):
        self.targets = encode_targets(
            [s.ground_truths for s in train_scenes],
            detector.grid_size,
            detector.num_classes,
            detector.input_shape[1],
        )
        self.train: Optional[np.ndarray] = None
        self.val: Optional[np.ndarray] = None

    def drop(self) -> None:
        self.train = None
        self.val = None


def _backbone_outputs(detector: Detector, scenes: Sequence[Scene], batch_size: int) -> np.ndarray:
    """Every scene's backbone_features, in scene order, computed
    `batch_size` scenes at a time so no layer output outgrows a batch."""
    out = np.empty((len(scenes),) + detector.feature_shape)
    for lo in range(0, len(scenes), batch_size):
        images = np.stack([s.image.data for s in scenes[lo : lo + batch_size]])
        out[lo : lo + len(images)] = backbone_features(detector, Tensor(images)).data
    return out


def train_epoch(
    detector: Detector,
    scenes: Sequence[Scene],
    epoch: int,
    freeze: int,
    state: OptimState,
    *,
    lr_cfg: LrConfig,
    sgd_cfg: SgdConfig,
    seed: int,
    cache: RunCache,
) -> float:
    """One pass over `scenes` in a per-epoch shuffled order, reading and
    filling `cache`, the run's RunCache for these scenes.

    Per batch: forward under the freeze signal, loss, backward, global
    clip, SGD step at lr_at(iteration). Every epoch has the same number
    of batches, so the epoch's first global iteration is epoch times that
    number. Returns the mean of the per-batch losses. The epoch's FLOPs
    and its last rate are not recorded here: both follow from the config
    (plan_ledger, _curves_records).
    """
    if not scenes:
        raise ValueError("cannot train on an empty scene list")
    if len(cache.targets) != len(scenes):
        raise ValueError(f"cache holds {len(cache.targets)} scenes, got {len(scenes)}")
    if not freeze:
        cache.drop()
    elif cache.train is None:
        cache.train = _backbone_outputs(detector, scenes, sgd_cfg.batch_size)
    order = generator(seed, STREAM_BATCH_SHUFFLE, epoch).permutation(len(scenes))
    params = dict(detector.parameters())
    key_of = detector.grad_key_table()

    first = epoch * math.ceil(len(scenes) / sgd_cfg.batch_size)
    losses = []
    for iteration, lo in enumerate(range(0, len(order), sgd_cfg.batch_size), start=first):
        rows = order[lo : lo + sgd_cfg.batch_size]
        with Tape() as tape:
            if freeze:
                pred = detector_forward(detector, None, 1, features=Tensor(cache.train[rows]))
            else:
                pred = detector_forward(detector, Tensor(np.stack([scenes[i].image.data for i in rows])), 0)
            loss = detection_loss(pred, cache.targets[rows])
        grads_by_uid = backward(loss, tape)
        grads = {key_of[uid]: g for uid, g in grads_by_uid.items()}
        grads = clip_gradients(grads, sgd_cfg.clip_max_norm)
        sgd_step(params, grads, state, lr_at(iteration, epoch, lr_cfg), sgd_cfg)
        losses.append(loss.item())
    return float(np.mean(losses))


def evaluate_detector(detector: Detector, scenes: Sequence[Scene], batch_size: int,
                      cache: RunCache) -> EvalReport:
    """mAP@50 of the detector over `scenes`. Runs outside any tape, so
    nothing is recorded and no FLOPs are charged. The backbone outputs
    come from `cache.val`, which must hold one row per scene; an empty
    store is filled up front. The head runs `batch_size` scenes at a time
    (a larger matmul would change its bits), and the stacked predictions
    are decoded in one call."""
    if not scenes:
        raise ValueError("cannot evaluate on an empty scene list")
    if cache.val is None:
        cache.val = _backbone_outputs(detector, scenes, batch_size)
    elif len(cache.val) != len(scenes):
        raise ValueError(f"cache holds {len(cache.val)} val scenes, got {len(scenes)}")
    heads = [detector_forward(detector, None, 1, features=Tensor(cache.val[lo : lo + batch_size])).tensor.data
             for lo in range(0, len(scenes), batch_size)]
    pred = PredictionGrid(Tensor(np.concatenate(heads)), detector.grid_size, detector.num_classes)
    detections = decode_predictions(pred, [s.index for s in scenes], detector.input_shape[1])
    return map50(detections, [gt for s in scenes for gt in s.ground_truths])


def plan_ledger(cfg: ExperimentConfig) -> FlopsLedger:
    """The ledger a run of `cfg` records, built without training: every
    epoch charged for n_train samples under the schedule's freeze signal."""
    specs = flops_specs(plan_detector(cfg.arch))
    ledger = FlopsLedger(specs)
    for epoch, freeze in enumerate(freeze_signals(cfg.schedule, cfg.total_epochs)):
        ledger.record_epoch(epoch, freeze, specs, cfg.n_train)
    return ledger


def _curves_records(cfg: ExperimentConfig, ledger: FlopsLedger, measured: Sequence[tuple]) -> list[EpochRecord]:
    """A run's epoch records: per planned epoch of `ledger`, its freeze flag,
    running total and last iteration's rate (see train_epoch), and its
    measured (mean_loss, val_map50). val_map50 is None off cfg.evaluates'
    cadence, and NaN (which no curves.csv row holds) where it is missing on it."""
    per_epoch = math.ceil(cfg.n_train / cfg.sgd.batch_size)
    return [EpochRecord(epoch=epoch, frozen=planned.frozen, mean_loss=mean_loss,
                        lr=lr_at((epoch + 1) * per_epoch - 1, epoch, cfg.lr), cum_flops=running,
                        val_map50=(math.nan if val_map50 is None else val_map50) if cfg.evaluates(epoch) else None)
            for epoch, (planned, running, (mean_loss, val_map50))
            in enumerate(zip(ledger.records, ledger.cumulative_totals(), measured))]


@dataclass
class TrainState:
    """What training changes from one epoch to the next: the detector, its
    SGD state and each epoch's measured (mean_loss, val_map50); the RunCache.

    Nothing else is carried, because the rest follows from these and the
    config: the next epoch is len(measured), its first global iteration
    follows from the epoch (see train_epoch), the ledger is plan_ledger(cfg)
    and the records _curves_records. The learning rate and the batch order
    depend only on the iteration, the epoch and the seed, so two runs of
    one config whose freeze signals agree up to an epoch have equal states
    there (run_experiments trains such a prefix once).
    """

    detector: Detector
    optim: OptimState
    measured: list
    cache: RunCache

    def park(self, path) -> tuple:
        """Set this state aside, as (path, measured), to resume later or to
        be read as a finished leaf: the parameters go to `path` and the
        velocity to `path + ".velocity"`, both in the checkpoint codec, and
        the measured pairs are copied. The feature stores are not kept."""
        save_checkpoint(self.detector, path)
        save_arrays(self.optim.velocity, path + ".velocity")
        return path, list(self.measured)

    def resume(self, parked: tuple) -> None:
        """Return to a parked state in place, and delete its files. The
        feature stores are emptied first, since the backbone moves. The
        parameter file must fit the detector, as a run's checkpoint must."""
        self.cache.drop()
        path, self.measured = parked
        restore_checkpoint(self.detector, path)
        self.optim = OptimState(load_checkpoint(path + ".velocity"))
        os.remove(path)
        os.remove(path + ".velocity")


# glibc's mallopt options, and the values its dynamic threshold rule
# reaches on 64-bit after freeing a block at its 32 MiB ceiling.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD_BYTES = 64 << 20
_MMAP_THRESHOLD_BYTES = 32 << 20
_heap_held = False


def _libc():
    """This process's C library on Linux, else None."""
    return ctypes.CDLL(None) if sys.platform.startswith("linux") else None


def _hold_heap() -> None:
    """Keep a training step's freed temporaries on the heap, once per
    process; nothing where the C library has no mallopt.

    A step allocates and frees blocks of 0.1-0.5 MB. Under glibc's
    default policy these are mmapped, or trimmed off the heap top, and
    the next step faults their pages back in: hundreds of minor faults
    per unfrozen step, until something frees a block large enough to
    raise the dynamic thresholds (a frozen stretch's feature store does;
    a run with no frozen epoch never does). Setting both thresholds up
    front makes every run start in that state. Allocation policy only:
    no value computed changes.
    """
    global _heap_held
    if _heap_held:
        return
    _heap_held = True
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _spare_cores() -> int:
    """The cores this process may run on, less the one it trains on: the
    most worker processes a walk starts (see run_experiments). 0 where
    os.posix_spawn, which starts them, is missing."""
    if not hasattr(os, "posix_spawn"):
        return 0
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cores - 1


def _part(ledgers: Sequence[FlopsLedger], group: list, epoch: int) -> tuple[list, list]:
    """The runs of `group` whose planned epoch `epoch` is frozen, and the others."""
    frozen = [i for i in group if ledgers[i].records[epoch].frozen]
    return frozen, [i for i in group if i not in frozen]


def _plan_branch(ledgers: Sequence[FlopsLedger], group: list, epoch: int) -> tuple[list, int]:
    """(leaves, flops) of the branch that trains the runs `group` from
    `epoch` on: the groups of runs that share each leaf, in the order the
    walk yields their results (the frozen side of every split first), and
    the planned ledger FLOPs of training each epoch of the branch once."""
    flops = 0
    for e in range(epoch, len(ledgers[group[0]].records)):
        sides = _part(ledgers, group, e)
        if all(sides):
            (first, a), (second, b) = (_plan_branch(ledgers, side, e) for side in sides)
            return first + second, flops + a + b
        flops += ledgers[group[0]].records[e].total()
    return [group], flops


def _route(branch: tuple, queue: list, finished: dict, ledgers: Sequence[FlopsLedger]) -> None:
    """Keep a parked branch: a finished leaf, whose measured pairs cover
    every epoch, in `finished` under its first run; any other on `queue`."""
    parked, group = branch
    if len(parked[1]) == len(ledgers[group[0]].records):
        finished[group[0]] = parked
    else:
        queue.append(branch)


def _heaviest(queue: list, ledgers: Sequence[FlopsLedger]) -> tuple:
    """Take the queued branch with the most planned ledger FLOPs left."""
    def left(k):
        parked, group = queue[k]
        return _plan_branch(ledgers, group, len(parked[1]) if parked else 0)[1]
    return queue.pop(max(range(len(queue)), key=left))


class _Walk:
    """One process's part in a walk (see run_experiments): the runs' planned
    ledgers, the scenes, and one TrainState that `train_branch` moves along
    one branch of the trie at a time. Making one sets the process's heap
    policy (see _hold_heap) before it generates the data."""

    def __init__(self, cfg: ExperimentConfig, ledgers: Sequence[FlopsLedger], fork_dir: str):
        self.cfg, self.ledgers, self.fork_dir = cfg, ledgers, fork_dir
        _hold_heap()
        self.train_scenes, self.val_scenes = generate_dataset(cfg.scene, cfg.n_train, cfg.n_val)
        detector = build_detector(cfg.arch, init_seed=cfg.seed)
        self.state = TrainState(detector, OptimState(), [], RunCache(detector, self.train_scenes))

    def park(self, group: list) -> tuple:
        """The state parked as the branch of `group` in its trie node's file: (parked, group)."""
        path = os.path.join(self.fork_dir, f"{group[0]}-{len(self.state.measured)}.bin")
        return self.state.park(path), group

    def train_branch(self, branch: tuple, hand_off: Callable[[tuple], None]) -> Iterator[None]:
        """Train a (parked state or None, runs) branch to its leaf, yielding
        after every epoch. Where its runs part, the state goes on with the
        frozen side, which reads the feature stores it may hold, and the
        unfrozen side, which fills none, is parked and passed to hand_off.
        The finished leaf is parked and passed to hand_off the same way."""
        parked, group = branch
        cfg, state = self.cfg, self.state
        if parked is not None:
            state.resume(parked)
        for epoch in range(len(state.measured), cfg.total_epochs):
            frozen, unfrozen = _part(self.ledgers, group, epoch)
            if frozen and unfrozen:
                hand_off(self.park(unfrozen))
                group = frozen
            freeze = self.ledgers[group[0]].records[epoch].frozen
            # Called through the module, in this positional order, so
            # that a wrapper of experiment.train_epoch sees every epoch.
            mean_loss = train_epoch(
                state.detector, self.train_scenes, epoch, freeze, state.optim,
                lr_cfg=cfg.lr, sgd_cfg=cfg.sgd, seed=cfg.seed, cache=state.cache,
            )
            val_map = (evaluate_detector(state.detector, self.val_scenes, cfg.sgd.batch_size,
                                         cache=state.cache).map50
                       if cfg.evaluates(epoch) else None)
            state.measured.append((mean_loss, val_map))
            yield
        hand_off(self.park(group))


# What a worker's BLAS reads at start-up; each worker runs one thread.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A worker is a fresh interpreter that runs this.
_WORKER_CODE = "from freezelab.experiment import _work; _work()"


def _send(fd: int, message) -> None:
    """Write one message to a pipe: its pickle's length in 8 bytes, then
    the pickle."""
    data = pickle.dumps(message)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, n: int) -> bytes:
    chunks = []
    while n:
        chunk = os.read(fd, n)
        if not chunk:
            raise EOFError("the pipe's writer has gone")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _receive(fd: int):
    """Read one message that _send wrote, and nothing past it."""
    return pickle.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))


def _work() -> None:
    """A worker process of a walk, started by _Pool.start. Its stdin
    brings the walk's (config, planned ledgers, fork directory); once it
    has built its _Walk from them it sends ("ready", None), and only then
    is it handed a branch. Each branch it trains to its leaf. Every branch
    it parks goes back to the walk as ("park", branch): the unfrozen side
    of each split, which it does not train, and the finished leaf. An
    exception goes back as ("error", exception) and ends the worker.
    Messages go out on what was stdout; anything printed goes to stderr.
    Ctrl-C is left to the walk, which ends its workers."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    out = os.dup(1)
    os.dup2(2, 1)
    try:
        walk = _Walk(*_receive(0))
        _send(out, ("ready", None))
        while True:
            for _ in walk.train_branch(_receive(0), lambda parked: _send(out, ("park", parked))):
                pass
    except EOFError:  # the walk has gone
        pass
    except Exception as exc:
        _send(out, ("error", exc))


@dataclass
class _Worker:
    pid: int
    to: int  # the write end of its stdin
    back: int  # the read end of its stdout
    ready: bool = False  # once it has sent its ready message
    group: list = field(default_factory=list)  # the runs it trains, none while idle
    exit_code: Optional[int] = None  # once it has been reaped


class _Pool:
    """The worker processes of one walk, none until `start`. Each is a
    fresh interpreter (see _work) that trains one branch at a time.
    Leaving the pool ends and reaps every worker."""

    def __init__(self, cfg: ExperimentConfig, ledgers: Sequence[FlopsLedger], fork_dir: str, names: list):
        self.setup = (cfg, ledgers, fork_dir)
        self.names = names
        self.workers: list[_Worker] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for worker in self.workers:
            if worker.exit_code is None:
                os.kill(worker.pid, signal.SIGTERM)
        for worker in self.workers:
            self._reap(worker)
            os.close(worker.to)
            os.close(worker.back)

    def start(self, n: int) -> None:
        """Start n workers with os.posix_spawn. A worker inherits nothing
        of this interpreter (no monkeypatch, no tape, no BLAS threads): it
        imports freezelab from where this process did, with its BLAS at one
        thread from its first import of numpy on."""
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, **dict.fromkeys(_BLAS_THREAD_VARIABLES, "1"))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        for _ in range(n):
            stdin, to = os.pipe()
            back, stdout = os.pipe()
            try:
                pid = os.posix_spawn(sys.executable, [sys.executable, "-c", _WORKER_CODE], env,
                                     file_actions=[(os.POSIX_SPAWN_DUP2, stdin, 0),
                                                   (os.POSIX_SPAWN_DUP2, stdout, 1)])
            except BaseException:
                os.close(to)
                os.close(back)
                raise
            finally:
                os.close(stdin)
                os.close(stdout)
            self.workers.append(_Worker(pid, to, back))
            self._talk(self.workers[-1], _send, to, self.setup)

    def serve(self, queue: list, finished: dict, block: bool = False) -> None:
        """Take in what the workers sent (ready messages, and parked branches,
        which _route puts on `queue` or into `finished`), waiting for a
        message when `block`; then hand each ready and idle worker the queued
        branch with the most planned FLOPs left."""
        if not self.workers:
            return
        import select

        by_fd = {worker.back: worker for worker in self.workers}
        for fd in select.select(list(by_fd), [], [], None if block else 0)[0]:
            worker = by_fd[fd]
            kind, body = self._talk(worker, _receive, fd)
            if kind == "error":
                raise body
            if kind == "ready":
                worker.ready = True
            else:
                _route(body, queue, finished, self.setup[1])
                worker.group = [i for i in worker.group if i not in body[1]]
        for worker in self.workers:
            if worker.ready and not worker.group and queue:
                branch = _heaviest(queue, self.setup[1])
                worker.group = branch[1]
                self._talk(worker, _send, worker.to, branch)

    def _talk(self, worker: _Worker, action, *args):
        """action(*args) on one of the worker's pipes; a broken pipe means
        that the worker died, which is one error that names its runs."""
        try:
            return action(*args)
        except (EOFError, OSError):
            self._reap(worker)
            runs = ", ".join(self.names[i] for i in worker.group) or "no run"
            raise RuntimeError(f"a worker process died (exit code {worker.exit_code}) "
                               f"while it trained {runs}") from None

    def _reap(self, worker: _Worker) -> None:
        if worker.exit_code is None:
            worker.exit_code = os.waitstatus_to_exitcode(os.waitpid(worker.pid, 0)[1])


def _check_out_dir(out_dir) -> None:
    """Raise if `out_dir` cannot become a directory because it, or a path
    it lies under, exists as something else; creates nothing."""
    probe = os.path.abspath(out_dir)
    while not os.path.isdir(probe):
        if os.path.lexists(probe):
            raise ValueError(f"cannot write run directory {out_dir}: {probe} is not a directory")
        probe = os.path.dirname(probe)


def run_experiments(runs: Sequence[tuple[ExperimentConfig, Optional[FlopsLedger]]]) -> Iterator[RunResult]:
    """Train runs that differ only in schedule and output_dir, each shared
    prefix of their freeze signals once, and yield each run's RunResult.

    `runs` holds (config, baseline ledger or None) pairs; no two may name
    one output_dir, and none may be or lie under a file (_check_out_dir),
    both checked before training. Each run's ledger is planned from its
    config (plan_ledger) before training; a baseline fills that run's
    summary delta and must describe a run of the same shape, which is checked
    against the planned ledger. The walk goes through the trie of the
    runs' planned freeze flags. Where they part, the frozen side goes on
    from the live state and the unfrozen side is parked, as is each leaf
    (see _Walk.train_branch and TrainState.park), in a temporary directory
    that goes when the walk ends or raises. Runs with one sequence share a
    leaf. Every run directory holds the bytes an independent run writes.

    One rule holds at any core count. The walk starts by starting
    min(_spare_cores(), leaves - 1) worker processes (see _Pool and _work;
    each costs about 50 MB), and none for one leaf. Parked branches wait
    in one queue, and an idle process takes the one with the most planned
    ledger FLOPs left; a worker is handed one only once it is ready, so a
    walk whose workers are still starting, or that has none, takes its
    own parked branches back. The split rule is the same in every process,
    so the stores a process filled for a frozen stretch are never parked.
    Every finished leaf waits for its turn (_route): results come in
    _plan_branch's leaf order, each with a detector and records of its own,
    and this process writes each run directory as its result is yielded,
    so no output depends on the core count; a leaf's files go once its
    last run is yielded. Leaving the walk in any way ends its workers; a
    worker that dies is an error that names its runs.
    """
    runs = list(runs)
    if not runs:
        raise ValueError("no runs to train")
    cfg = runs[0][0]
    for other, _ in runs[1:]:
        if replace(other, schedule=cfg.schedule, output_dir=cfg.output_dir) != cfg:
            raise ValueError("runs trained together may differ only in schedule and output_dir")
    named = set()
    for other, _ in runs:
        if other.output_dir is not None:
            _check_out_dir(other.output_dir)
            if os.path.realpath(other.output_dir) in named:
                raise ValueError(f"runs trained together must write different run directories; "
                                 f"two name {other.output_dir}")
            named.add(os.path.realpath(other.output_dir))
    ledgers = [plan_ledger(c) for c, _ in runs]
    for (_, baseline), ledger in zip(runs, ledgers):
        if baseline is not None:  # reject a mismatch before training
            delta_flops(ledger, baseline)
    every = list(range(len(runs)))
    leaves = _plan_branch(ledgers, every, 0)[0]  # in the order results are yielded
    names = [c.output_dir or c.schedule.describe() for c, _ in runs]

    with tempfile.TemporaryDirectory(prefix="freezelab-fork-") as fork_dir, \
            _Pool(cfg, ledgers, fork_dir, names) as pool:
        pool.start(min(_spare_cores(), len(leaves) - 1))
        walk = _Walk(cfg, ledgers, fork_dir)
        queue = [(None, every)]  # parked branches: (parked state or None, runs)
        finished = {}  # first run of a leaf -> its parked state, until its turn

        def hand_off(branch):
            _route(branch, queue, finished, ledgers)
            pool.serve(queue, finished)

        def turns():
            # the results of every leaf whose turn has come, with their run directories written
            while leaves and leaves[0][0] in finished:
                path, measured = finished.pop(leaves[0][0])
                for i in leaves.pop(0):
                    (run_cfg, baseline), ledger = runs[i], ledgers[i]
                    detector = build_detector(cfg.arch, init_seed=cfg.seed)
                    restore_checkpoint(detector, path)
                    records = _curves_records(run_cfg, ledger, measured)
                    result = RunResult(records=records, ledger=ledger, detector=detector, config=run_cfg,
                                       summary=summarize_run(run_cfg, records, ledger, baseline))
                    if run_cfg.output_dir is not None:
                        write_run_dir(result)
                    yield result
                os.remove(path)
                os.remove(path + ".velocity")

        while queue or any(worker.group for worker in pool.workers):
            if not queue:
                pool.serve(queue, finished, block=True)
            else:
                for _ in walk.train_branch(_heaviest(queue, ledgers), hand_off):
                    pool.serve(queue, finished)
                    yield from turns()
            yield from turns()


def run_experiment(cfg: ExperimentConfig, baseline_ledger: Optional[FlopsLedger] = None) -> RunResult:
    """Train one detector under one schedule and, when the config names an
    output_dir, write the run directory (see write_run_dir). A baseline
    ledger, when given, fills the summary's delta column."""
    [result] = run_experiments([(cfg, baseline_ledger)])
    return result


def summarize_run(cfg: ExperimentConfig, records: Sequence[EpochRecord], ledger: FlopsLedger,
                  baseline_ledger: Optional[FlopsLedger] = None) -> dict:
    """The one summary.csv row, keyed by SUMMARY_COLUMNS. The final mAP@50
    is that of the last evaluated epoch record, or 0.0 when no epoch was
    evaluated (no val scenes). The delta is None (NA on disk) without a
    baseline ledger."""
    return {
        "schedule": cfg.schedule.describe(),
        "total_epochs": cfg.total_epochs,
        "final_map50": next((r.val_map50 for r in reversed(records) if r.val_map50 is not None), 0.0),
        "total_flops": ledger.total_flops(),
        "delta_flops_vs_baseline": None if baseline_ledger is None else delta_flops(ledger, baseline_ledger),
        "estimated_minutes": estimate_training_time(cfg.time_model, cfg.schedule, cfg.total_epochs),
    }


# --------------------------------------------------------------------------
# run and grid directories: every table file is a CSV with a header row,
# "\n" line ends, floats as repr (which round-trips exactly) and None as
# NA, written to a temp file and renamed into place.

CURVES_COLUMNS = ("epoch", "frozen", "mean_loss", "lr", "cum_flops", "val_map50")
LEDGER_COLUMNS = ("epoch", "frozen", "n_samples", "fwd_backbone", "bwd_backbone", "fwd_rest", "bwd_rest", "cum_total")
SUMMARY_COLUMNS = ("schedule", "total_epochs", "final_map50", "total_flops",
                   "delta_flops_vs_baseline", "estimated_minutes")
MISSING = "NA"


def _cell(x) -> str:
    if x is None:
        return MISSING
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _write_rows(columns, rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(x) for x in row] for row in rows)


def write_table(path, columns: Sequence[str], rows) -> None:
    """Write one table file atomically: the `columns` header, then each
    row's cells in column order."""
    _write_atomically(path, _write_rows, columns, rows)


def read_csv_rows(path, columns: Sequence[str], convert: Callable[[list], object]) -> list:
    """`convert(row)` for every data row of a CSV file headed by `columns`.

    An empty file, a foreign header, a byte that is not UTF-8, a row the
    csv module rejects, a row of the wrong width, or a row that `convert`
    rejects with a ValueError all raise one ValueError that names the file
    (and the line, for row faults; the text layer decodes in chunks, so a
    decode fault has no line).
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path} is empty; expected the header {','.join(columns)}")
            if tuple(header) != tuple(columns):
                raise ValueError(f"unexpected header in {path}: {header}")
            out = []
            for row in reader:
                where = f"{path}, line {reader.line_num}"
                if len(row) != len(columns):
                    raise ValueError(f"{where}: expected {len(columns)} fields, got {len(row)}")
                try:
                    out.append(convert(row))
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except csv.Error as exc:
        raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    return out


def write_curves_csv(records: Sequence[EpochRecord], path) -> None:
    write_table(path, CURVES_COLUMNS, (astuple(r) for r in records))


def _curves_row(row) -> EpochRecord:
    record = EpochRecord(
        epoch=int(row[0]),
        frozen=int(row[1]),
        mean_loss=float(row[2]),
        lr=float(row[3]),
        cum_flops=int(row[4]),
        val_map50=None if row[5] == MISSING else float(row[5]),
    )
    if record.val_map50 is not None and not 0 <= record.val_map50 <= 1:
        raise ValueError(f"val_map50 must be {MISSING} or in [0, 1], got {row[5]}")
    return record


def read_curves_csv(path) -> list[EpochRecord]:
    return read_csv_rows(path, CURVES_COLUMNS, _curves_row)


def _ledger_rows(ledger: FlopsLedger) -> list[list[int]]:
    """The data rows of the ledger's ledger.csv: each record's fields and
    the running total."""
    return [[*astuple(r), running] for r, running in zip(ledger.records, ledger.cumulative_totals())]


def write_ledger_csv(ledger: FlopsLedger, path) -> None:
    write_table(path, LEDGER_COLUMNS, _ledger_rows(ledger))


def write_summary_csv(summary: dict, path) -> None:
    write_table(path, SUMMARY_COLUMNS, [[summary[c] for c in SUMMARY_COLUMNS]])


def _summary_row(row) -> dict:
    out = dict(zip(SUMMARY_COLUMNS, row))
    out["total_epochs"] = int(out["total_epochs"])
    out["final_map50"] = float(out["final_map50"])
    out["total_flops"] = int(out["total_flops"])
    out["delta_flops_vs_baseline"] = (
        None if out["delta_flops_vs_baseline"] == MISSING else int(out["delta_flops_vs_baseline"])
    )
    out["estimated_minutes"] = float(out["estimated_minutes"])
    return out


def read_summary_csv(path) -> dict:
    rows = read_csv_rows(path, SUMMARY_COLUMNS, _summary_row)
    if len(rows) != 1:
        raise ValueError(f"{path} holds {len(rows)} summary rows, expected 1")
    return rows[0]


def _write_atomically(path, write, *args) -> None:
    """Call write(*args, tmp) on a temp file beside `path`, then rename it
    into place, so `path` is always either its old or its new content."""
    tmp = f"{path}.tmp"
    try:
        write(*args, tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_run_dir(result: RunResult) -> None:
    """Write the run directory, each file atomically: config.json,
    curves.csv, ledger.csv, summary.csv and checkpoint.bin.

    checkpoint.bin goes last (and a stale one is removed first), so its
    presence marks a completed run. The same result gives the same bytes.
    """
    cfg = result.config
    out_dir = cfg.output_dir
    if out_dir is None:
        raise ValueError("config has no output_dir")
    os.makedirs(out_dir, exist_ok=True)
    checkpoint = os.path.join(out_dir, "checkpoint.bin")
    if os.path.exists(checkpoint):
        os.remove(checkpoint)
    _write_atomically(os.path.join(out_dir, "config.json"), save_config, cfg)
    write_curves_csv(result.records, os.path.join(out_dir, "curves.csv"))
    write_ledger_csv(result.ledger, os.path.join(out_dir, "ledger.csv"))
    write_summary_csv(result.summary, os.path.join(out_dir, "summary.csv"))
    _write_atomically(checkpoint, save_checkpoint, result.detector)


def _hold_to_plan(path, noun: str, rows: list, planned: list, ledger: FlopsLedger) -> None:
    """The data rows read from `path` must be one per epoch of `ledger`, equal
    to `planned` in order: else one ValueError names the file and the fault."""
    if len(rows) != len(ledger.records):
        raise ValueError(f"{path} holds {len(rows)} {noun} rows; its config.json plans {len(ledger.records)}")
    for n, (row, want) in enumerate(zip(rows, planned), start=1):
        if row != want:
            raise ValueError(f"{path}, data row {n}: {row} differs from the {noun} its config.json plans ({want})")


def read_run_dir(run_dir) -> tuple[ExperimentConfig, FlopsLedger, list[EpochRecord]]:
    """(config, planned ledger, epoch records) of a completed run directory
    held to its config.json's plan. The directory must carry the
    checkpoint.bin that write_run_dir writes last, its ledger.csv the rows
    of the planned ledger (plan_ledger), and its curves.csv the records
    _curves_records makes of that plan and the file's measured pairs, as
    tuples (so a NaN mean_loss equals itself). A file that does not is one
    ValueError that names it."""
    if not os.path.exists(os.path.join(run_dir, "checkpoint.bin")):
        raise ValueError(f"{run_dir} is not a completed run directory: it has no checkpoint.bin")
    cfg = load_config(os.path.join(run_dir, "config.json"))
    ledger = plan_ledger(cfg)
    path = os.path.join(run_dir, "ledger.csv")
    rows = read_csv_rows(path, LEDGER_COLUMNS, lambda row: [int(x) for x in row])
    _hold_to_plan(path, "ledger", rows, _ledger_rows(ledger), ledger)
    path = os.path.join(run_dir, "curves.csv")
    records = read_curves_csv(path)
    planned = _curves_records(cfg, ledger, [(r.mean_loss, r.val_map50) for r in records])
    _hold_to_plan(path, "curves", [astuple(r) for r in records], [astuple(r) for r in planned], ledger)
    return cfg, ledger, records


def read_baseline(baseline_dir, ledger: FlopsLedger, run_dir) -> FlopsLedger:
    """baseline_dir's planned ledger (read_run_dir), which must describe a
    run of `ledger`'s shape (delta_flops): else one ValueError naming both."""
    baseline = read_run_dir(baseline_dir)[1]
    try:
        delta_flops(ledger, baseline)
    except ValueError as exc:
        raise ValueError(f"{run_dir} cannot be compared with baseline {baseline_dir}: {exc}") from None
    return baseline


def rebuild_summary(run_dir, baseline_dir) -> dict:
    """Rewrite run_dir/summary.csv with deltas against baseline_dir's
    ledger, and return the new summary. No other file is written. Both
    directories are read by read_run_dir."""
    cfg, ledger, records = read_run_dir(run_dir)
    summary = summarize_run(cfg, records, ledger, read_baseline(baseline_dir, ledger, run_dir))
    write_summary_csv(summary, os.path.join(run_dir, "summary.csv"))
    return summary

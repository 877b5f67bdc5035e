"""Package structure rules, checked on the source: no module imports a
sibling's private (underscore) name, only `experiment` reads or writes
CSV, `flops` does no file I/O, the backbone runs off the tape only in
`model.backbone_features`, a ledger record has the fields of a
`ledger.csv` row, the one process-wide setting (the heap policy, the
only use of `ctypes`) is made by the walk (`experiment._Walk`, which
`run_experiments` and each of its workers make), only the walk starts a
process (`os.posix_spawn` in `experiment._Pool.start`) and `import
freezelab` imports no `multiprocessing`, `subprocess` or `select`, and the
binary layout has one home: only `model` imports `struct`, and a
checkpoint-codec file is read back only by `model.restore_checkpoint`
and by `TrainState.resume`. A schedule is expanded into per-epoch freeze
signals only by `schedule.freeze_signals`, and an evaluation report is
made only by `evaluation.map50`. `autodiff.conv2d` and
`autodiff.maxpool2d` declare no parameter defaults, so `model.Layer` is
the one place a stride is filled. No module raises or catches
`SystemExit`: the CLI reports every error through one `except` in
`cli.main`. A config is checked whole where it is made: in `experiment`,
only `ExperimentConfig.__post_init__` and `plan_ledger` call
`plan_detector`. A run's ledger is planned from its config: only
`experiment.plan_ledger` calls `record_epoch`. A run's epoch records
are made in one place: only `experiment._curves_records` (from the plan
and what training measured) and `experiment._curves_row` (a curves.csv
row read back) construct an `EpochRecord`. The learning rate (`lr_at`,
at iterations that follow from the epoch) has two readers:
`experiment.train_epoch`, and `_curves_records`, which gives each
epoch's record the rate of its last iteration. A run's per-epoch plan is
computed once: only `experiment.plan_ledger` and
`flops.estimate_training_time` call `freeze_signals`, the training walk
reads each epoch's freeze flag from the planned ledger without
re-expanding the schedule and never sums a ledger, and the evaluation
cadence (`ExperimentConfig.evaluates`) is read only by the walk's epoch
loop and by `_curves_records`. An evaluation is scored with
arrays: `model.decode_predictions` and `evaluation.average_precision`
hold no `for` or `while` loop, and only `experiment.evaluate_detector`
decodes, once per evaluation. A run directory has one reader: only
`experiment.read_run_dir` reads a `curves.csv` or rows under
`LEDGER_COLUMNS`, so `report --run`, `report --baseline` and `run
--baseline` hold a directory to its config's plan alike. A ledger grows
only by `FlopsLedger.record_epoch`: it has no `append`. A walk sets a
state aside one way: in `experiment`, only `TrainState.park` and
`write_run_dir` write a parameter file (`save_checkpoint`), and a worker
sends only `ready`, `park` and `error` messages."""

import ast
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from freezelab.experiment import LEDGER_COLUMNS
from freezelab.flops import EpochFlopsRecord

SRC = Path(__file__).resolve().parent.parent / "src" / "freezelab"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text(), filename=f"{module}.py")


def _imports(tree):
    """(module, name) for every import; name is None for `import x`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            for alias in node.names:
                yield base, alias.name


def test_the_package_has_modules():
    assert {"cli", "experiment", "flops", "model"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_private_name_of_a_sibling(module):
    private = [(src, name) for src, name in _imports(_tree(module))
               if name is not None and name.startswith("_")
               and (src.startswith(".") or src.startswith("freezelab"))]
    assert private == []


@pytest.mark.parametrize("module", MODULES)
def test_only_experiment_imports_csv(module):
    uses_csv = any(src == "csv" for src, _ in _imports(_tree(module)))
    assert uses_csv == (module == "experiment")


def test_flops_does_no_file_io():
    tree = _tree("flops")
    calls = {node.func.id for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "open" not in calls
    assert not {src for src, _ in _imports(tree)} & {"csv", "io", "json", "os", "pathlib", "shutil"}


def _calls_by_function(tree, name):
    """The enclosing function of every call of `name` or `<x>.name`."""
    out = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                out.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return out


def test_only_backbone_features_pauses_the_tape():
    callers = [(module, function) for module in MODULES
               for function in _calls_by_function(_tree(module), "pause_recording")]
    assert callers == [("model", "backbone_features")]


def test_a_ledger_record_is_a_ledger_csv_row_without_its_running_total():
    assert [f.name for f in fields(EpochFlopsRecord)] + ["cum_total"] == list(LEDGER_COLUMNS)


def test_the_heap_policy_is_the_one_process_setting_and_run_experiments_makes_it():
    assert [module for module in MODULES
            if any(src == "ctypes" for src, _ in _imports(_tree(module)))] == ["experiment"]
    callers = {name: {(module, function) for module in MODULES
                      for function in _calls_by_function(_tree(module), name)}
               for name in ("mallopt", "_hold_heap", "_Walk")}
    assert callers == {"mallopt": {("experiment", "_hold_heap")},
                       "_hold_heap": {("experiment", "__init__")},
                       "_Walk": {("experiment", "run_experiments"), ("experiment", "_work")}}
    assert _calls_by_function(_walk_class(), "_hold_heap") == ["__init__"]


def test_the_binary_layout_lives_in_model_and_two_functions_read_it():
    assert [module for module in MODULES
            if any(src == "struct" for src, _ in _imports(_tree(module)))] == ["model"]
    callers = sorted((module, function) for module in MODULES
                     for function in _calls_by_function(_tree(module), "load_checkpoint"))
    assert callers == [("experiment", "resume"), ("model", "restore_checkpoint")]


@pytest.mark.parametrize("name,home", [
    ("phase_freeze_signal", ("schedule", "freeze_signals")),
    ("EvalReport", ("evaluation", "map50")),
])
def test_a_schedule_expands_in_one_place_and_one_function_makes_a_report(name, home):
    callers = [(module, function) for module in MODULES
               for function in _calls_by_function(_tree(module), name)]
    assert callers == [home]


@pytest.mark.parametrize("name,home", [
    ("record_epoch", ("experiment", "plan_ledger")),
    ("decode_predictions", ("experiment", "evaluate_detector")),
])
def test_one_function_plans_a_ledger_and_one_decodes(name, home):
    callers = [(module, function) for module in MODULES
               for function in _calls_by_function(_tree(module), name)]
    assert callers == [home]


@pytest.mark.parametrize("name", ["conv2d", "maxpool2d"])
def test_the_window_primitives_declare_no_defaults(name):
    (function,) = [node for node in _tree("autodiff").body
                   if isinstance(node, ast.FunctionDef) and node.name == name]
    assert function.args.defaults == [] and function.args.kw_defaults == []


@pytest.mark.parametrize("module", MODULES)
def test_no_module_raises_or_catches_system_exit(module):
    assert not any(isinstance(node, ast.Name) and node.id == "SystemExit" for node in ast.walk(_tree(module)))


def test_a_config_is_checked_where_it_is_made():
    tree = _tree("experiment")
    assert sorted(_calls_by_function(tree, "plan_detector")) == ["__post_init__", "plan_ledger"]
    (config,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig"]
    assert _calls_by_function(config, "plan_detector") == ["__post_init__"]


@pytest.mark.parametrize("name,callers", [
    ("freeze_signals", [("experiment", "plan_ledger"), ("flops", "estimate_training_time")]),
    ("evaluates", [("experiment", "_curves_records"), ("experiment", "train_branch")]),
    ("lr_at", [("experiment", "_curves_records"), ("experiment", "train_epoch")]),
])
def test_a_run_is_planned_once_and_its_cadence_has_two_readers(name, callers):
    assert sorted((module, function) for module in MODULES
                  for function in _calls_by_function(_tree(module), name)) == callers


def _walk_class():
    (walk,) = [node for node in _tree("experiment").body if isinstance(node, ast.ClassDef) and node.name == "_Walk"]
    return walk


def test_the_walk_neither_expands_a_schedule_nor_sums_a_ledger_per_epoch():
    (entry,) = [node for node in _tree("experiment").body
                if isinstance(node, ast.FunctionDef) and node.name == "run_experiments"]
    walk = ast.Module(body=[entry, _walk_class()], type_ignores=[])
    in_loops = {name for loop in ast.walk(walk) if isinstance(loop, (ast.For, ast.While))
                for name in ("freeze_signals", "cumulative_totals") if _calls_by_function(loop, name)}
    assert in_loops == set()
    assert _calls_by_function(walk, "cumulative_totals") == []


def test_one_builder_makes_a_runs_epoch_records_and_one_reads_them_back():
    assert sorted((module, function) for module in MODULES
                  for function in _calls_by_function(_tree(module), "EpochRecord")) == [
        ("experiment", "_curves_records"), ("experiment", "_curves_row")]


@pytest.mark.parametrize("module,name", [
    ("model", "decode_predictions"),
    ("evaluation", "average_precision"),
])
def test_scoring_holds_no_loop(module, name):
    (function,) = [node for node in _tree(module).body
                   if isinstance(node, ast.FunctionDef) and node.name == name]
    assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(function))


@pytest.mark.parametrize("name", ["read_curves_csv"])
def test_one_function_reads_a_run_directory(name):
    callers = [(module, function) for module in MODULES
               for function in _calls_by_function(_tree(module), name)]
    assert callers == [("experiment", "read_run_dir")]


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_only_read_run_dir_reads_ledger_rows():
    readers = [(module, function.name) for module in MODULES for function in ast.walk(_tree(module))
               if isinstance(function, ast.FunctionDef)
               and any(isinstance(call, ast.Call) and "read_csv_rows" in _names(call.func)
                       and "LEDGER_COLUMNS" in _names(call) for call in ast.walk(function))]
    assert readers == [("experiment", "read_run_dir")]


def test_a_ledger_grows_only_by_record_epoch():
    (ledger,) = [node for node in _tree("flops").body if isinstance(node, ast.ClassDef) and node.name == "FlopsLedger"]
    methods = {node.name for node in ledger.body if isinstance(node, ast.FunctionDef)}
    assert "record_epoch" in methods and "append" not in methods


# The modules and calls through which a module could start a process.
PROCESS_MODULES = {"multiprocessing", "subprocess", "concurrent", "pty"}
def test_a_walk_sets_every_state_aside_one_way():
    # a parameter file is written only by a park and as a run's checkpoint.bin
    tree = _tree("experiment")
    writers = set()

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if isinstance(node, ast.Name) and node.id == "save_checkpoint":
            writers.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    assert writers == {"park", "write_run_dir"}
    # a worker's messages are (kind, body) pairs of three kinds
    (work,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_work"]
    messages = [call.args[1] for call in ast.walk(work)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "_send"]
    assert all(isinstance(message, ast.Tuple) and len(message.elts) == 2 for message in messages)
    assert sorted(message.elts[0].value for message in messages) == ["error", "park", "ready"]


PROCESS_CALLS = {"fork", "forkpty", "system", "popen", "posix_spawn", "posix_spawnp", "spawnv", "spawnve",
                 "spawnvp", "spawnvpe", "spawnl", "spawnle", "spawnlp", "spawnlpe", "execv", "execve",
                 "execvp", "execvpe", "execl", "execle", "execlp", "execlpe"}


def test_only_the_walk_starts_a_process_and_the_package_imports_no_multiprocessing():
    assert [(module, src) for module in MODULES for src, _ in _imports(_tree(module))
            if src.split(".")[0] in PROCESS_MODULES] == []
    assert sorted((module, name, function) for module in MODULES for name in PROCESS_CALLS
                  for function in _calls_by_function(_tree(module), name)) == [
        ("experiment", "posix_spawn", "start")]
    (pool,) = [node for node in _tree("experiment").body if isinstance(node, ast.ClassDef) and node.name == "_Pool"]
    assert _calls_by_function(pool, "posix_spawn") == ["start"]
    # in a fresh interpreter, since this one has imported them for pytest
    code = ("import sys, freezelab, " + ", ".join(f"freezelab.{m}" for m in MODULES if m != "__init__")
            + "; print(sorted(m for m in sys.modules if m.split('.')[0] in "
            + repr(PROCESS_MODULES | {"select"}) + "))")
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": str(SRC.parent)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

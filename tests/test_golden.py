"""The byte contract: every golden case (see golden/regenerate.py) writes
the stable files recorded in golden/bytes.json, whether its walks train
in one process or start a worker.

The bits depend on the numpy build and its BLAS, so a moved hash fails
here in any environment, and the message names the recorded environment
beside this one: a test that skipped elsewhere would hide drift there.
"""

import json

import pytest

from golden.regenerate import RECORD, SCRIPT, environment, golden_bytes

RECORDED = json.loads(RECORD.read_text())


@pytest.mark.parametrize("spare_cores", [0, 1])
def test_every_stable_byte_matches_the_record(tmp_path, spare_cores):
    hashes, _ = golden_bytes(tmp_path, spare_cores)
    recorded = RECORDED["sha1"]
    moved = sorted(path for path in recorded.keys() | hashes.keys() if hashes.get(path) != recorded.get(path))
    assert moved == [], (
        f"{len(moved)} of {len(recorded)} stable files moved with {spare_cores} spare cores: {moved}. "
        f"Recorded under {RECORDED['environment']}, run under {environment()}. A change that moves "
        f"bytes on purpose reruns {SCRIPT} and reports the final_map50 drift it prints in CHANGES.md.")

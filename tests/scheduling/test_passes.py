"""Pass identity across processes: pickled passes stay usable dict keys."""

import pickle
import subprocess
import sys
from pathlib import Path

from repro.scheduling import Pass, PassType

SRC = Path(__file__).resolve().parents[2] / "src"

DUMP = """
import pickle, sys
from repro.scheduling import Pass, PassType
sys.stdout.write(pickle.dumps({Pass(PassType.F, 1, 0): "f", Pass(PassType.W, 2, 1, 1): "w"}).hex())
"""

LOAD = """
import pickle, sys
from repro.scheduling import Pass, PassType
table = pickle.loads(bytes.fromhex(sys.stdin.read()))
assert Pass(PassType.F, 1, 0) in table, "unpickled key lost its hash"
assert table[Pass(PassType.W, 2, 1, 1)] == "w"
print("OK")
"""


def _run(script: str, hash_seed: str, stdin: str = "") -> str:
    result = subprocess.run(
        [sys.executable, "-c", script],
        input=stdin,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed, "PATH": ""},
        cwd=str(SRC.parent),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_unpickled_pass_keys_hash_in_the_loading_process():
    """A pass pickled under one hash seed is found under another.

    The pass caches its hash, and the hash of its type differs between
    processes; a pickled cache would make equal keys miss.
    """
    payload = _run(DUMP, hash_seed="1")
    assert _run(LOAD, hash_seed="2", stdin=payload).strip() == "OK"


def test_pickle_round_trip_keeps_fields_and_hash():
    p = Pass(PassType.S, 3, 2)
    loaded = pickle.loads(pickle.dumps(p))
    assert loaded == p
    assert hash(loaded) == hash(p)
    assert (loaded.type, loaded.microbatch, loaded.device, loaded.chunk) == (
        PassType.S, 3, 2, 0
    )

"""The runtime import graph holds the paper's pipeline and nothing else.

``import repro.runtime.experiment`` and ``import repro.cli`` must not load
the graph/sequence extensions (networkx among them) or the reference
miners in :mod:`repro.testing.oracles`; those load only when imported by
their full path.  Each check runs in a fresh interpreter, because this
test process has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.mining
import repro.mining.closed

SRC = Path(__file__).resolve().parents[1] / "src"

OFF_PIPELINE = (
    "networkx",
    "repro.mining.gspan",
    "repro.datasets.graphs",
    "repro.features.graph_pipeline",
    "repro.features.sequence_pipeline",
    "repro.testing.oracles",
)

# A meta-path finder that makes networkx look uninstalled.
BLOCK_NETWORKX = """
import sys

class _BlockNetworkx:
    def find_spec(self, name, path=None, target=None):
        if name == "networkx" or name.startswith("networkx."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, _BlockNetworkx())
"""


def _python(script: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("REPRO_FAULTS", None)
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("module", ["repro.runtime.experiment", "repro.cli"])
def test_runtime_import_loads_no_extension_or_oracle(module):
    script = (
        f"import json, sys, {module}\n"
        f"print(json.dumps([m for m in {list(OFF_PIPELINE)!r} if m in sys.modules]))"
    )
    proc = _python(script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_oracle_miners_are_not_mining_api():
    oracle_names = {"apriori", "charm", "maximal_frequent"}
    leaked = [
        name
        for module in (repro.mining, repro.mining.closed)
        for name in dir(module)
        if name in oracle_names or name.startswith("brute_force_")
    ]
    assert leaked == []


def test_experiment_runs_without_networkx(tmp_path):
    script = BLOCK_NETWORKX + (
        "from repro.cli import main\n"
        "status = main(['experiment', 'iris', '--out', sys.argv[1]])\n"
        "try:\n"
        "    import repro.mining.gspan\n"
        "except ModuleNotFoundError:\n"
        "    sys.exit(status)\n"
        "sys.exit('the finder did not block networkx')\n"
    )
    proc = _python(script, str(tmp_path / "run"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "report.json").exists()

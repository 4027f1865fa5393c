import os
import subprocess
import sys
from pathlib import Path

import gmmfad


def test_every_exported_name_resolves():
    assert len(set(gmmfad.__all__)) == len(gmmfad.__all__)
    for name in gmmfad.__all__:
        assert getattr(gmmfad, name) is not None, name


def test_import_leaves_scipy_stats_unloaded():
    # only the rank transform needs scipy.stats, and it imports it itself
    env = dict(os.environ, PYTHONPATH=str(Path(gmmfad.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, gmmfad, gmmfad.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False", proc.stdout + proc.stderr

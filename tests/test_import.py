"""Import-time footprint of the package."""

import os
import subprocess
import sys
from pathlib import Path

import csck


def test_import_loads_no_scipy():
    # scipy is only needed by shoot_ode, which imports it when it runs
    src = str(Path(csck.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = "import sys, csck; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"

"""Import-time and run-time footprint of the package."""

import os
import subprocess
import sys
from pathlib import Path

import csck


def test_import_loads_no_scipy():
    # the package runs on numpy alone; scipy serves only the test oracles.
    # A shoot runs too, since it is the part that used to need scipy
    src = str(Path(csck.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = (
        "import sys, csck\n"
        "ode = csck.build_ode(csck.RadialProblem(2, 6.0, 0.0, 0.0))\n"
        "res = csck.shoot_ode(ode, 1.0, 0.5, [3.0])\n"
        "assert res.domain_end is None and abs(res.samples[0][1] - 0.75) < 1e-6\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"

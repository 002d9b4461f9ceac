"""Import-time and run-time footprint of the package, and its lazy API."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import csck

SRC = str(Path(csck.__file__).resolve().parent.parent)

# the public names of the package, by the layer that defines each; a bare
# `import csck` loads none of the layers
EXPORTS = {
    "errors": (
        "BadAnchorError", "ConstraintViolationError", "CsckError", "EndpointSampleError",
        "IllConditionedError", "NotClassifiedError", "NotCsckError", "NotKahlerError",
        "NotNormalizableError", "OutOfDomainError", "StageError",
        "UnsupportedMultiplicityError", "ZeroPolyError",
    ),
    "polynomials": ("Poly", "RootProfile", "real_root_profile"),
    "reduction": (
        "FunctionHandle", "OdeData", "RadialProblem", "RecoveredConstants", "build_ode",
        "f_of", "ode_residual", "recover_constants",
    ),
    "branches": (
        "Branch", "BranchKind", "CaseReport", "Verdict", "admissible_branches", "classify",
        "lelong_number", "smooth_origin_test",
    ),
    "cases": ("CaseFixture", "canonical_label", "get_case", "labels_for", "match_label"),
    "quadrature": (
        "AntiderivativeF", "ArcTan", "LogLinear", "LogQuadratic", "RadialSolution",
        "RecipPower", "ShootResult", "ball_normalize", "eval_F", "gauge_from_anchor",
        "partial_fractions", "shoot_ode", "solve_g",
    ),
    "geometry": (
        "MetricSample", "VerificationReport", "curvature_fd", "metric_sample",
        "metric_tensor", "potential_u", "scalar_curvature", "verify_solution",
    ),
    "inequalities": ("ConstraintSample", "I_value", "J_value", "certify_negative"),
    "catalog": (
        "CrossCheckReport", "ExpectedBranch", "cross_check", "enumerate_cases", "instantiate",
    ),
}


def _python(*args, cwd=None):
    """A fresh interpreter with the package's sources on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True
    )


def _imports(*args, cwd=None):
    """Exit code of a fresh `python -X importtime ARGS`, and the modules it imported."""
    proc = _python("-X", "importtime", *args, cwd=cwd)
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.returncode, names


def _numpy(names):
    return sorted(name for name in names if name.partition(".")[0] == "numpy")


def test_import_loads_no_scipy():
    # the package runs on numpy alone; scipy serves only the test oracles.
    # A shoot runs too, since it is the part that used to need scipy
    code = (
        "import sys, csck\n"
        "ode = csck.build_ode(csck.RadialProblem(2, 6.0, 0.0, 0.0))\n"
        "res = csck.shoot_ode(ode, 1.0, 0.5, [3.0])\n"
        "assert res.domain_end is None and abs(res.samples[0][1] - 0.75) < 1e-6\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_import_loads_no_numpy():
    code, names = _imports("-c", "import csck")
    assert code == 0 and "csck" in names
    assert _numpy(names) == []


def test_lemmas_and_verify_input_load_no_numpy(tmp_path):
    code, names = _imports("-m", "csck.cli", "lemmas", "--which", "J")
    assert code == 0 and "csck.inequalities" in names
    assert _numpy(names) == []
    solve = ("solve", "--n", "2", "--scalar", "6", "--anchor", "1,0.5", "--output", "run.csv")
    assert _python("-m", "csck.cli", *solve, cwd=tmp_path).returncode == 0
    verify = ("verify", "--input", "run.csv", "--n", "2", "--scalar", "6")
    code, names = _imports("-m", "csck.cli", *verify, cwd=tmp_path)
    assert code == 0 and "csck.reduction" in names
    assert _numpy(names) == []


def test_catalog_list_loads_no_numpy():
    # the labels are the cases table's; the catalog layer drives the engine
    code, names = _imports(
        "-m", "csck.cli", "catalog", "--list", "--n", "2", "--curvature-sign", "pos"
    )
    assert code == 0 and "csck.cases" in names
    assert _numpy(names) == [] and "csck.catalog" not in names


def test_classify_loads_no_array_layer():
    # classify isolates roots with numpy, so the check sees numpy's modules
    code, names = _imports("-m", "csck.cli", "classify", "--n", "2", "--scalar", "-6")
    assert code == 0 and "numpy" in names
    assert names & {"csck.quadrature", "csck.geometry", "csck.catalog"} == set()


def test_every_public_name_is_its_layers_object():
    assert sorted(csck.__all__) == sorted(name for names in EXPORTS.values() for name in names)
    assert len(csck.__all__) == 67
    for layer, names in EXPORTS.items():
        module = importlib.import_module(f"csck.{layer}")
        assert getattr(csck, layer) is module
        for name in names:
            assert getattr(csck, name) is getattr(module, name), name


def test_a_bare_import_lists_every_name_and_reaches_every_layer():
    # dir() loads no layer, and a layer is an attribute of the package
    # before anything has imported it
    script = (
        "import json, sys, csck\n"
        "names = dir(csck)\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('csck.'))\n"
        "print(json.dumps([names, loaded, csck.geometry.__name__]))\n"
    )
    out = _python("-c", script)
    assert out.returncode == 0, out.stderr
    names, loaded, geometry = json.loads(out.stdout)
    assert set(names) >= set(csck.__all__) | set(EXPORTS)
    assert loaded == [] and geometry == "csck.geometry"


def test_dir_lists_every_public_name_and_layer():
    names = dir(csck)
    assert names == sorted(names)
    assert set(names) >= set(csck.__all__) | set(EXPORTS)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        csck.no_such_name

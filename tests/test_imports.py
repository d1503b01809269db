"""The package's import graph and its root: each registration stage stands
on the shared value types alone, so a stage can change without touching
another, ``import pcr`` exposes the pipeline's surface and the modules, and
a process that registers nothing loads none of scipy's slow subpackages."""

import ast
import json
import re
from pathlib import Path

import pytest

from pcr.synth import SynthSpec, generate_synthetic

from conftest import fresh_python

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pcr"
STAGES = ("scale", "relpose", "icp", "icpcov")
# Stages that work on plain point arrays need neither file formats nor
# camera models.
ARRAY_STAGES = ("scale", "icp", "icpcov")


def package_imports(module: str) -> set[str]:
    """Modules of the package that ``module`` imports, at any depth of its
    code, by relative or absolute name."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 or node.module == "pcr":
                if node.module in (None, "pcr"):
                    found.update(alias.name for alias in node.names)
                else:
                    found.add(node.module.split(".")[0])
            elif node.module and node.module.startswith("pcr."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("pcr."))
    return found


def test_every_module_is_parsed():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert set(STAGES) <= modules
    assert "cloudio" in package_imports("relpose")
    assert {"cloudio", "icp", "icpcov", "relpose", "scale"} <= package_imports("pipeline")


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_no_module_imports_a_private_name(module):
    # a name one module shares with another is public: no leading underscore
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "pcr")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("stage", STAGES)
def test_no_stage_module_imports_another(stage):
    assert package_imports(stage) & set(STAGES) == set()


@pytest.mark.parametrize("stage", ARRAY_STAGES)
def test_array_stages_import_only_geom_and_errors(stage):
    assert package_imports(stage) <= {"geom", "errors"}


# The root's names: the pipeline and its config, file I/O with its value
# types, the transforms and the errors. Stage functions stay in their modules.
ROOT_EXPORTS = {
    "PipelineConfig", "register", "run_pipeline",
    "read_ply", "write_ply", "read_matches", "read_intrinsics", "read_report",
    "write_report", "Cloud", "Matches", "CameraIntrinsics", "PipelineReport",
    "RigidTransform", "SimilarityTransform",
    "RegistrationError", "StageError", "ParseError", "DegenerateGeometryError",
    "InsufficientMatchesError", "NoConsensusError",
    "AmbiguousDecompositionError", "TooFewPairsError",
}
# Modules that perfbench reads as attributes of the package after ``import pcr``.
ROOT_MODULES = {"pipeline", "synth", "cloudio", "geom", "errors", *STAGES}


def test_root_holds_the_modules_and_exactly_the_kept_names():
    # a fresh interpreter, so that no other test's imports add to the root
    probe = "import json, pcr; print(json.dumps([n for n in vars(pcr) if n[0] != '_']))"
    proc = fresh_python(probe)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) == ROOT_EXPORTS | ROOT_MODULES


# Runs the indented code, then prints, however that code ended, which of
# scipy's slow subpackages the interpreter has loaded.
FOOTPRINT = """
import json, sys
try:
{}
finally:
    print(json.dumps([name for name in ("scipy.spatial", "scipy.optimize")
                      if name in sys.modules]))
"""
RUN_CLI = "    import pcr.cli\n    sys.exit(pcr.cli.main(sys.argv[1:]))"
BUILD_INDEX = ("    import numpy as np\n"
               "    from pcr.icp import NNIndex\n"
               "    pts = np.random.default_rng(5).normal(size=(300, 3))\n"
               "    NNIndex(pts).query(pts + 0.05)")


@pytest.mark.parametrize("code, args, returncode, message, loaded", [
    ("    import pcr", [], 0, "", []),
    (RUN_CLI, ["synth", "--out-dir", "scene"], 0, "", []),
    (RUN_CLI, ["register", "--source", "s.ply"], 2, "usage: pcr register", []),
    (RUN_CLI, ["register", "--source", "missing.ply", "--target", "missing.ply",
               "--out", "r.json"], 1, "pcr: error in stage io", []),
    (BUILD_INDEX, [], 0, "", ["scipy.spatial"]),
], ids=["import", "synth", "usage-error", "missing-source", "index"])
def test_only_a_registration_loads_scipy(tmp_path, code, args, returncode, message,
                                         loaded):
    # The first KD-tree, which only ICP builds, loads scipy.spatial; RANSAC's
    # polish is the manifold Gauss-Newton, so nothing loads scipy.optimize.
    proc = fresh_python(FOOTPRINT.format(code), *args, cwd=tmp_path)
    assert proc.returncode == returncode, proc.stderr
    assert message in proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == loaded


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # the run_pipeline example on the files of the default scene, and the
    # register example on the same scene in memory: the same first line
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = re.search(r"## Library\n(.*?)\n## ", readme, re.S).group(1)
    examples = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(examples) == 2
    generate_synthetic(SynthSpec(), tmp_path / "scene")
    monkeypatch.chdir(tmp_path)
    first_lines = []
    for example in examples:
        exec(compile(example, "README.md", "exec"), {})
        first_lines.append(capsys.readouterr().out.splitlines()[0])
    scale, rms = map(float, first_lines[0].split())
    assert abs(scale / SynthSpec.scale - 1.0) < 0.01
    assert rms > 0.0
    assert first_lines[1] == first_lines[0]

"""The package's import graph and its root: each registration stage stands
on the shared value types alone, so a stage can change without touching
another, and ``import pcr`` exposes the pipeline's surface and the modules."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pcr.synth import SynthSpec, generate_synthetic

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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert set(json.loads(out)) == ROOT_EXPORTS | ROOT_MODULES


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

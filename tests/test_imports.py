"""The package's import graph: each registration stage stands on the shared
value types alone, so a stage can change without touching another."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pcr"
STAGES = ("scale", "relpose", "filters", "icp", "icpcov")
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
    assert {"cloudio", "filters", "icp", "icpcov", "relpose", "scale"} \
        <= package_imports("pipeline")


@pytest.mark.parametrize("stage", STAGES)
def test_no_stage_module_imports_another(stage):
    assert package_imports(stage) & set(STAGES) == set()


@pytest.mark.parametrize("stage", ARRAY_STAGES)
def test_array_stages_import_only_geom_and_errors(stage):
    assert package_imports(stage) <= {"geom", "errors"}

"""Module layering of the solve path, and the seams the benchmark tracer wraps."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "satpose"
EPNP = "satpose.pnp.epnp"
# the satpose modules the EPnP reference solver may build on
EPNP_BASE = {"satpose.errors", "satpose.geometry", "satpose.pnp.p3p", "satpose.pnp.refine"}
# (file, name) imports of EPnP that stay: the package's public export, and the
# name in robust.py that bench/tracing.py wraps as the pnp.epnp layer
EPNP_ALLOWED = {("__init__.py", "epnp"), ("robust.py", "epnp")}


def _imports(path: Path):
    """(absolute module, imported name or None) for each import in a satpose source file."""
    package = ".".join(path.relative_to(PACKAGE.parent).parts[:-1])
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = package.split(".")
            if node.level:
                base = base[: len(base) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module
            for alias in node.names:
                yield module, alias.name


def _solve_path_files():
    """Every pnp module but EPnP's own, and the pipeline."""
    pnp = [p for p in sorted((PACKAGE / "pnp").glob("*.py")) if p.name != "epnp.py"]
    return pnp + [PACKAGE / "pipeline.py"]


def _names(tree: ast.AST) -> set[str]:
    """Every identifier a syntax tree uses: names, attributes and imported names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])  # an alias is a Name where it is used
    return found


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.rglob("*.py")) if p.name != "geometry.py"],
    ids=lambda p: str(p.relative_to(PACKAGE)),
)
def test_only_geometry_names_the_pinhole_or_its_depth_cut(path):
    # every other module projects through geometry.camera_pixels or project
    assert not {"MIN_PROJECTION_DEPTH", "pinhole"} & _names(ast.parse(path.read_text()))


@pytest.mark.parametrize("path", sorted((PACKAGE / "pnp").glob("*.py")), ids=lambda p: p.name)
def test_no_solver_catches_behind_camera_error(path):
    # a trial outside the depth cut has NaN residuals, which least_squares rejects
    caught = [
        ast.unparse(node.type)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and "BehindCameraError" in _names(node.type)
    ]
    assert not caught, caught


def test_import_resolution_reads_relative_imports():
    found = set(_imports(PACKAGE / "pnp" / "robust.py"))
    assert ("satpose.pnp.p3p", "p3p_hypotheses") in found
    assert ("satpose.geometry", "Pose") in found
    assert ("satpose.pnp.epnp", "epnp") in found


@pytest.mark.parametrize("path", _solve_path_files(), ids=lambda p: p.name)
def test_only_the_traced_name_and_the_export_reach_epnp(path):
    reaching = [
        (module, name)
        for module, name in _imports(path)
        if module == EPNP or (module == "satpose.pnp" and name == "epnp")
    ]
    assert all((path.name, name) in EPNP_ALLOWED for _, name in reaching), reaching


def test_epnp_builds_only_on_the_solve_path_below_it():
    satpose_modules = {
        module for module, _ in _imports(PACKAGE / "pnp" / "epnp.py") if module.startswith("satpose")
    }
    assert satpose_modules <= EPNP_BASE, satpose_modules - EPNP_BASE


def test_every_traced_seam_resolves_to_a_callable(monkeypatch):
    # bench/tracing.py swaps these module attributes for wrappers; a moved or
    # renamed name would make a traced layer read 0 in the benchmark
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("satpose_bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    seams = [(module, attr) for module, attr, _ in tracing.SPANNED + tracing.COUNTED]
    assert seams
    missing = [
        f"{module.__name__}.{attr}" for module, attr in seams if not callable(getattr(module, attr, None))
    ]
    assert not missing, missing

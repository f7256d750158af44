"""The three walk-count routes stay independent.

Formula (census), trace and enumeration must agree exactly; that agreement
means something only while no route borrows another's data.  These checks
read the source, so a refactor that merges routes fails here.
"""

import ast
from pathlib import Path

import loopwalks

_PACKAGE = Path(loopwalks.__file__).parent


def _tree(module):
    return ast.parse((_PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _package_imports(tree):
    """Names of the loopwalks modules a module imports, relative or absolute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                if node.module:
                    found.add(node.module.split(".")[0])
                else:
                    found.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "loopwalks":
                parts = node.module.split(".")
                if len(parts) > 1:
                    found.add(parts[1])
                else:
                    found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "loopwalks":
                    found.add(parts[1] if len(parts) > 1 else "loopwalks")
    return found


def _names_read(tree):
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.value for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return names


def test_oracle_imports_only_errors_and_graph_core():
    assert _package_imports(_tree("oracle")) <= {"errors", "graph_core"}


def test_oracle_never_reads_census_masks():
    assert not _names_read(_tree("oracle")) & {"neighbor_masks", "loop_mask"}


def test_oracle_reads_no_derived_adjacency():
    # both check routes build their own structures from edges and loops
    derived = {"neighbor_masks", "loop_mask", "degrees", "connected",
               "neighbors", "loop_set"}
    assert not _names_read(_tree("oracle")) & derived


def test_census_imports_no_other_route():
    assert not _package_imports(_tree("census")) & {"oracle", "walks", "spectral"}


def test_import_scan_sees_every_form():
    tree = ast.parse("from . import oracle\nfrom .walks import x\n"
                     "import loopwalks.spectral\nfrom loopwalks import census\n"
                     "from loopwalks.errors import y\nimport itertools\n")
    assert _package_imports(tree) == {"oracle", "walks", "spectral", "census", "errors"}


def test_only_the_cli_and_the_package_root_import_the_oracle():
    # the trace and enumeration routes are checks: no production layer
    # may take its results from them
    importers = {path.stem for path in _PACKAGE.glob("*.py")
                 if "oracle" in _package_imports(_tree(path.stem))}
    assert importers == {"cli", "__init__"}

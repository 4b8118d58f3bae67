"""The compared routes stay independent: each imports from its sibling modules
only what the allowlist below names.

The representation route (`ainfty`), the closed forms (`torusrep`), the sheaf
route (`sheafcat`) and the Cech route (`cech`) are checked against each other,
so code they shared beyond basic matrix arithmetic (`exactalg`) would make
the comparisons true by construction.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "legtorus"
PACKAGE = "legtorus"
WHOLE = "the whole module"

# route -> {sibling module: names it may import from there, or WHOLE}
ALLOWED = {
    "ainfty": {"exactalg": WHOLE, "freedga": WHOLE},
    "torusrep": {"exactalg": WHOLE, "freedga": {"pq_matrix"},
                 "ainfty": {"HomElement", "Representation"}},
    "sheafcat": {"exactalg": WHOLE, "freedga": {"pq_matrix"},
                 "ainfty": {"Representation"},
                 "torusrep": {"H0Class", "H1Class"}},
    "cech": {"exactalg": WHOLE, "sheafcat": {"SheafObject"}},
}


def sibling_imports(path: Path) -> list[tuple[str, str]]:
    """(sibling, name) for every import of a package module in the file, at
    any depth; name is WHOLE when the module itself is imported."""
    tree = ast.parse(path.read_text())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE:
                    out.append((".".join(parts[1:]) or PACKAGE, WHOLE))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith(PACKAGE):
                continue
            base = node.module or ""
            if node.level == 0:
                base = base[len(PACKAGE):].lstrip(".")
            for alias in node.names:
                if base:
                    out.append((base, alias.name))
                else:  # from . import sibling
                    out.append((alias.name, WHOLE))
    return out


@pytest.mark.parametrize("route", sorted(ALLOWED))
def test_route_imports_only_the_allowlist(route):
    imports = sibling_imports(SRC / f"{route}.py")
    assert imports, route
    for sibling, name in imports:
        allowed = ALLOWED[route].get(sibling)
        assert allowed is not None, f"{route} imports from {sibling}"
        assert allowed == WHOLE or name in allowed, f"{route} imports {sibling}.{name}"


def copy_info_readers(path: Path) -> list[int]:
    """Line numbers of every access to an attribute named copy_info."""
    tree = ast.parse(path.read_text())
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "copy_info"]


def test_only_freedga_decodes_the_copy_info():
    # the K-copy's letter table is freedga's: the twist in ainfty reads
    # staircase words already split by level (freedga.staircase_words)
    assert copy_info_readers(SRC / "freedga.py")
    for path in sorted(SRC.glob("*.py")):
        if path.name != "freedga.py":
            assert not copy_info_readers(path), path.name


def test_the_copy_info_scan_sees_every_read(tmp_path):
    code = ("def f(dga, copy):\n    info = dga.copy_info\n"
            "    return getattr(copy, 'x').copy_info['a1^12']\n")
    (tmp_path / "probe.py").write_text(code)
    assert copy_info_readers(tmp_path / "probe.py") == [2, 3]


def test_the_parser_sees_every_import_form(tmp_path):
    code = ("from . import exactalg as xa\nfrom .ainfty import mu_k\n"
            "import legtorus.cli\nfrom legtorus.freedga import DGA\n"
            "def f():\n    from .verify import run_suites\n")
    (tmp_path / "probe.py").write_text(code)
    assert sorted(sibling_imports(tmp_path / "probe.py")) == sorted([
        ("exactalg", WHOLE), ("ainfty", "mu_k"), ("cli", WHOLE), ("freedga", "DGA"),
        ("verify", "run_suites")])

"""The package as a whole: its exports, the README's examples, and its
source hygiene."""

import ast
import json
import re
from pathlib import Path

import qreadout
from qreadout import cli

PACKAGE = Path(qreadout.__file__).parent
README = PACKAGE.parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in qreadout.__all__ if not hasattr(qreadout, name)]
    assert not missing


def readme_block(after: str, lang: str) -> str:
    """The first ``lang`` fenced block of the README after the line ``after``."""
    text = README.read_text(encoding="utf-8")
    tail = text[text.index(after) :]
    return re.search(rf"```{lang}\n(.*?)```", tail, re.S).group(1)


def test_readme_config_validates_and_runs(tmp_path):
    doc = json.loads(readme_block("Example config:", "json"))
    assert cli.validate_document(doc) == []
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["pipeline", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "snr_report.json").is_file()


def test_readme_library_use_runs(capsys):
    exec(readme_block("## Library use", "python"), {})
    k_star = int(capsys.readouterr().out.split()[0])
    assert k_star >= 1


def modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}


def names_read(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name ``tree`` reads, bare or as an attribute, outside ``skip``."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_import_is_read():
    # __init__.py's imports are its re-exports
    unused = []
    for name, tree in modules().items():
        if name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in read:
                        unused.append(f"{name}: {bound}")
    assert not unused


def test_every_private_definition_is_named():
    # a module-level _function or _Class that nothing in the package names
    # outside its own body
    trees = modules()
    reads = {name: names_read(tree) for name, tree in trees.items()}
    unnamed = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                continue
            if any(node.name in r for other, r in reads.items() if other != name):
                continue
            if node.name not in names_read(tree, skip=node):
                unnamed.append(f"{name}: {node.name}")
    assert not unnamed

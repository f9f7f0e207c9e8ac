"""Structure of the source: guarantee records have one format, built in
coarselab.certificates and nowhere else."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "coarselab"


def _pass_records(path: pathlib.Path) -> list[int]:
    """The lines of the dict literals in a module that carry a "pass" key."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Dict)
            and any(isinstance(k, ast.Constant) and k.value == "pass" for k in node.keys)]


def test_only_the_certificates_module_builds_guarantee_records():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "certificates.py" in modules and _pass_records(SRC / "certificates.py")
    elsewhere = {p.name: lines for p in modules if p.name != "certificates.py"
                 for lines in [_pass_records(p)] if lines}
    assert elsewhere == {}

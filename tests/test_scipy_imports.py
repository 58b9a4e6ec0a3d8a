"""Where the package imports scipy: only ``pcs``'s ``brentq``, which the benchmark's tracer wraps.

When the tracer no longer needs ``pcs.brentq`` (ROADMAP item 2), ALLOWED becomes empty and scipy
can move to the ``test`` extra (ROADMAP item 7).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ofdm_isac"
ALLOWED = {("pcs.py", "scipy.optimize", "brentq")}


def _scipy_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "scipy":
                    yield path.name, alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.partition(".")[0] == "scipy":
            for alias in node.names:
                yield path.name, node.module, alias.name


def test_only_the_tracer_held_brentq_imports_scipy():
    found = {hit for path in sorted(PACKAGE.glob("*.py")) for hit in _scipy_imports(path)}
    assert found == ALLOWED

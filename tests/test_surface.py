"""src/ holds only what the program runs.

Every public function and every public method of a module under
src/markosparse must be named somewhere in src/, perfbench/ or scripts/
besides its own def: a name that only tests reach is test surface, and
belongs in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "markosparse"

# kept for the tests alone, each with its reason
TEST_REFERENCES = {
    # the step-by-step mask sampler that the chain analysis, the long-run
    # variance and the cover time are checked against
    "kernels.simulate_masks",
}


def _public_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            yield node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from (f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, functions) and not item.name.startswith("_"))


def test_every_public_function_and_method_has_a_caller_outside_the_tests():
    sources = [p for top in ("src", "perfbench", "scripts")
               for p in sorted((ROOT / top).rglob("*.py"))]
    text = "\n".join(p.read_text(encoding="utf-8") for p in sources)
    unused = set()
    for module in sorted(PACKAGE.glob("*.py")):
        for qualified in _public_names(module):
            name = qualified.rsplit(".", 1)[-1]
            if not re.search(rf"\b{name}\b", re.sub(rf"\bdef {name}\b", "", text)):
                unused.add(f"{module.stem}.{qualified}")
    # an allowlisted name that gains a caller, or goes, leaves the list
    assert sorted(unused) == sorted(TEST_REFERENCES)

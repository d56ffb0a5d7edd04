"""Every backticked ALL-CAPS name in README.md is a constant the code defines.

A constant deleted from the code tends to live on in the prose that tuned
or explained it. A name counts as defined when a module of `src/weavenet`
or a file `benchmark/*.py` assigns it at module level. Names of the OS and
the environment, which the code only reads, are exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OS_NAMES = {"O_TRUNC", "PYTHONPATH"}


def constants_named(text: str) -> set[str]:
    """The ALL-CAPS names, two characters or more, that `text` puts in backticks."""
    return set(re.findall(r"`([A-Z][A-Z0-9_]+)`", text))


def constants_defined(paths) -> set[str]:
    """The names the files at `paths` assign at module level."""
    names = set()
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


SOURCES = sorted((ROOT / "src" / "weavenet").glob("*.py")) + sorted((ROOT / "benchmark").glob("*.py"))


def undefined_constants(readme: str) -> list[str]:
    return sorted(constants_named(readme) - constants_defined(SOURCES) - OS_NAMES)


def test_a_deleted_constant_is_found():
    text = "Chunks cap at `CONV_CHUNK_BYTES`; `SPLIT_MIN_MACS` = 2^21 and `PYTHONPATH`, `T` and `Tensor` are not constants."
    assert constants_named(text) == {"CONV_CHUNK_BYTES", "SPLIT_MIN_MACS", "PYTHONPATH"}
    assert undefined_constants(text) == ["SPLIT_MIN_MACS"]


def test_readme_names_only_constants_the_code_defines():
    assert undefined_constants((ROOT / "README.md").read_text(encoding="utf-8")) == []

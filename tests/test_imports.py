"""No module of the package imports a name it never uses, and no module
defines a private name that no module of the package reads.

Deleting code tends to leave its imports and private helpers behind. An
imported name counts as used when the module reads it anywhere (an
attribute base such as `np` in `np.zeros` included) or lists it in
`__all__`; `from __future__` imports are exempt. A module-level `_name`
(def, class or assignment; not a dunder) counts as read when some module of the package
loads it as a name or an attribute, or imports it. A module-level public name
counts as read when a module of the package or a file under `benchmark/`
does so, or names it in a string constant, as `benchmark/tracing.py` names
the functions it wraps. Test modules do not count: code that only tests
read is dead code.

A fresh `import weavenet.cli` loads only the modules every command needs:
`bench`, `pipeline` and `fixtures` load in the commands that run them. Only
the two config classes are dataclasses.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "weavenet"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_an_unused_import_is_found():
    source = "import os\nimport numpy as np\nfrom .weave import replace, init_params\n__all__ = ['init_params']\nnp.zeros(1)\n"
    assert unused_imports(source) == ["os (line 1)", "replace (line 3)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def names_read(trees) -> set[str]:
    """Every name the trees load as a name or an attribute, or import."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def module_definitions(trees: dict[str, ast.Module]):
    """(module, name, line) of each module-level def, class or assignment target."""
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            yield from ((module, n, node.lineno) for n in names)


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """`module: _name (line n)` for each module-level private definition in
    sources (module name -> source) that no module of sources reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = names_read(trees.values())
    return sorted(
        f"{module}: {n} (line {line})" for module, n, line in module_definitions(trees)
        if n.startswith("_") and not n.endswith("__") and n not in read
    )


def unused_public_definitions(sources: dict[str, str], readers: list[str]) -> list[str]:
    """`module: name (line n)` for each module-level public definition in
    sources that neither sources nor readers (benchmark files) read,
    as a name, an attribute, an import or a string constant."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    everything = list(trees.values()) + [ast.parse(source) for source in readers]
    read = names_read(everything)
    read.update(
        node.value for tree in everything for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    )
    return sorted(
        f"{module}: {n} (line {line})" for module, n, line in module_definitions(trees)
        if not n.startswith("_") and n not in read
    )


def test_an_unused_private_definition_is_found():
    sources = {
        "a.py": "_USED = 1\n_UNUSED, _PAIR = 2, 3\ndef _helper():\n    return _USED\nclass _Gone:\n    pass\n",
        "b.py": "from . import a\nfrom .c import _taken\na._helper()\n__all__ = []\n__version__ = '1'\n",
        "c.py": "def _taken():\n    pass\n_left: int = 0\n",
    }
    assert unused_private_definitions(sources) == [
        "a.py: _Gone (line 5)", "a.py: _PAIR (line 2)", "a.py: _UNUSED (line 2)", "c.py: _left (line 3)",
    ]


def test_every_private_definition_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_definitions(sources) == []


def test_an_unused_public_definition_is_found():
    sources = {
        "a.py": "USED = 1\nLEFT, PAIR = 2, 3\ndef helper():\n    return USED\nclass Gone:\n    pass\n",
        "b.py": "from .a import helper\nTARGETS = ('a', 'PAIR')\ndef traced():\n    pass\n",
    }
    readers = ["import b\nb.traced()\n", "print('Gone is not a name')\n"]
    assert unused_public_definitions(sources, readers) == [
        "a.py: Gone (line 5)", "a.py: LEFT (line 2)", "b.py: TARGETS (line 2)",
    ]


def test_every_public_definition_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    readers = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "benchmark").rglob("*.py"))]
    assert unused_public_definitions(sources, readers) == []


# The fusion core and the tensor kernels under it stand alone: neither reads
# the detection, evaluation, config or CLI layers above them.
CORE_MODULES = ("tensor_core.py", "weave.py")
CORE_IMPORTS = {"errors", "tensor_core"}


def package_imports(source: str) -> set[str]:
    """The package modules a module imports by relative import."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            modules.update([node.module] if node.module else (alias.name for alias in node.names))
    return modules


def test_package_imports_are_found():
    source = "import numpy\nfrom .errors import shown\nfrom . import detect, weave\nfrom .tensor_core import Tensor\n"
    assert package_imports(source) == {"errors", "detect", "weave", "tensor_core"}


@pytest.mark.parametrize("name", CORE_MODULES)
def test_core_imports_only_errors_and_tensor_core(name):
    assert package_imports((PACKAGE / name).read_text(encoding="utf-8")) <= CORE_IMPORTS


# A dataclass generates and compiles its methods when its module is
# imported, so records derive from errors.Record instead. The two configs
# stay dataclasses: `fields()` drives their type checks, and
# `dataclasses.replace` derives one config from another.
DATACLASSES = {"config.py": ["RunConfig"], "weave.py": ["WeaveConfig"]}


def dataclasses_defined(source: str) -> list[str]:
    """The classes a module decorates with `dataclass` or `dataclasses.dataclass`, called or not."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
                    names.append(node.name)
    return names


def test_a_dataclass_is_found():
    source = (
        "import dataclasses\nfrom dataclasses import dataclass\n@dataclass\nclass A:\n    x: int\n"
        "@dataclasses.dataclass(frozen=True)\nclass B:\n    pass\n@other\nclass C:\n    pass\n"
    )
    assert dataclasses_defined(source) == ["A", "B"]


def test_only_the_configs_are_dataclasses():
    found = {path.name: dataclasses_defined(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: classes for name, classes in found.items() if classes} == DATACLASSES


# What importing the CLI loads, and what each command (run in a directory
# holding the files below) adds to it; `eval` adds nothing.
CLI_IMPORTS = {"weavenet", "cli", "config", "detect", "errors", "evaluation", "formats", "tensor_core", "weave"}
COMMAND_IMPORTS = [
    (["eval", "dets.jsonl", "gt.jsonl"], set()),
    (["demo", "--config", "config.json", "--out", "d.jsonl"], {"pipeline", "fixtures"}),
    (["fixtures", "--config", "config.json", "--out", "fx"], {"fixtures"}),
    (["verify", "--config", "config.json"], {"bench", "fixtures"}),
    (["bench", "--config", "config.json", "--warmup", "0", "--reps", "1"], {"bench", "fixtures"}),
]
TINY_CONFIG = {"pyramid_sizes": [4, 2, 1], "raw_channels": [3, 3, 3], "woven_scales": [0, 1], "k": 2}
BOX = '"class_id": 0, "xmin": 0, "ymin": 0, "xmax": 2, "ymax": 2'

LOADED = """
import json, sys
def loaded():
    return sorted(m.partition(".")[2] or m for m in sys.modules if m.split(".")[0] == "weavenet")
from weavenet.cli import main
before = loaded()
code = main(sys.argv[1:])
print(json.dumps([code, before, loaded()]))
"""


def modules_loaded(tmp_path, argv: list[str]) -> tuple[int, set[str], set[str]]:
    """(exit code, weavenet modules after `import weavenet.cli`, after main(argv)),
    in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", LOADED, *argv], capture_output=True, text=True, env=env, cwd=tmp_path, check=True
    )
    code, before, after = json.loads(proc.stdout.splitlines()[-1])
    return code, set(before), set(after)


@pytest.mark.parametrize("argv,extra", COMMAND_IMPORTS, ids=[argv[0] for argv, _ in COMMAND_IMPORTS])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, extra):
    (tmp_path / "config.json").write_text(json.dumps(TINY_CONFIG))
    (tmp_path / "gt.jsonl").write_text('{"image_id": "a", %s}\n' % BOX)
    (tmp_path / "dets.jsonl").write_text('{"image_id": "a", "score": 0.5, %s}\n' % BOX)
    assert modules_loaded(tmp_path, argv) == (0, CLI_IMPORTS, CLI_IMPORTS | extra)

"""The package's public surface is exactly what the README documents."""

import re
import subprocess
import sys

import sisa
from conftest import REPO

README = (REPO / "README.md").read_text(encoding="utf-8")
EXPORTS_MARKER = "The `sisa` package exports these names and no others:"


def library_use_section() -> str:
    start = README.index("## Library use")
    end = README.index("\n## ", start + 1)
    return README[start:end]


def documented_exports() -> list[str]:
    """Names in the bulleted list that follows the exports sentence."""
    after = library_use_section().split(EXPORTS_MARKER, 1)[1].lstrip("\n")
    block = after.split("\n\n", 1)[0]
    return sorted(re.findall(r"`(\w+)`", block))


def test_all_equals_the_readme_list():
    documented = documented_exports()
    assert len(documented) == len(set(documented)) == 23
    assert sorted(sisa.__all__) == documented


def test_every_export_resolves_and_star_import_binds_exactly_them():
    for name in sisa.__all__:
        assert getattr(sisa, name) is not None
    namespace = {}
    exec("from sisa import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(sisa.__all__)


def test_evaluate_submodule_is_the_module():
    import sisa.evaluate as module

    assert hasattr(module, "evaluate_configs")
    assert callable(module.evaluate)


def test_readme_library_example_runs():
    code = re.search(r"```python\n(.*?)```", library_use_section(), re.S).group(1)
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "-0.5 negative"

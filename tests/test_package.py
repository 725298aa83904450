"""The package surface: exactly the names the README's "Library use" lists."""

import re
import subprocess
import sys
from pathlib import Path

import racefixer
from conftest import TESTS_DIR


def _library_use_names() -> set[str]:
    readme = (TESTS_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    names = set()
    for imported in re.findall(r"^from racefixer import (.+)$", section, re.M):
        names.update(name.strip() for name in imported.split(","))
    return names


def test_all_is_the_readme_surface():
    names = _library_use_names()
    assert names  # the section must still show its imports
    assert sorted(racefixer.__all__) == sorted(names)


def test_every_exported_name_resolves():
    for name in racefixer.__all__:
        assert getattr(racefixer, name) is not None, name


def test_cli_import_leaves_dataclasses_out():
    # A fresh interpreter, since this one has imported dataclasses already;
    # -S keeps site hooks from importing it first and hiding an import.
    src = str(Path(racefixer.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import racefixer.cli; "
            "print('dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout == "False\n"

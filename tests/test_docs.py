"""The docs name only modules and attributes that exist.

Every backticked ``repro.*`` dotted name in README.md, DESIGN.md and
docs/*.md (a trailing ``()`` allowed) must resolve: its longest
importable prefix is a module, and the rest are attributes of it.  An
inventory that names a module nobody wrote reads as a claim about the
code.
"""

from __future__ import annotations

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCUMENTS = [ROOT / "README.md", ROOT / "DESIGN.md"] + sorted(
    (ROOT / "docs").glob("*.md")
)
DOTTED_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\(\))?`")


def documented_names():
    names = set()
    for document in DOCUMENTS:
        for match in DOTTED_NAME.finditer(document.read_text()):
            names.add((document.relative_to(ROOT).as_posix(), match.group(1)))
    return sorted(names)


def resolve(name: str) -> object:
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            found = getattr(found, attribute)
        return found
    raise ImportError(name)


def test_documents_name_some_modules():
    assert len(documented_names()) > 20


@pytest.mark.parametrize(
    "document,name", documented_names(), ids=lambda value: value
)
def test_documented_name_resolves(document, name):
    try:
        resolve(name)
    except (ImportError, AttributeError) as error:
        pytest.fail(f"{document} names `{name}`, which does not resolve: {error}")

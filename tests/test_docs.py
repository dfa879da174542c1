import importlib
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
_ROW = re.compile(r"^\| `(gl2tors\.\w+)` \| (.*) \|$")
_IDENTIFIER = re.compile(r"`([A-Za-z_]\w*)`")


def _overview_rows() -> list[tuple[str, str]]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library overview", 1)[1].split("\n## ", 1)[0]
    return [m.groups() for line in section.splitlines() if (m := _ROW.match(line))]


def test_library_overview_names_exist():
    """Every backticked Python identifier in a row of README's "Library
    overview" table is an attribute of that row's module, so a deleted name
    cannot stay documented."""
    rows = _overview_rows()
    assert {"gl2tors.modarith", "gl2tors.lemmas"} <= {module for module, _ in rows}
    missing = [
        (module, name)
        for module, contents in rows
        for name in _IDENTIFIER.findall(contents)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []

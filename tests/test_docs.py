import importlib
import inspect
import pathlib
import pkgutil
import re

import gl2tors

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
_ROW = re.compile(r"^\| `(gl2tors\.\w+)` \| (.*) \|$")
_IDENTIFIER = re.compile(r"`([A-Za-z_]\w*)`")
# a backticked dotted name that starts with a class name, such as
# `Subgroup.entries`, `Mat2._reduced` or `Conjugation.verify(h)`
_CLASS_ATTR = re.compile(r"`(_?[A-Z]\w*)\.([A-Za-z_]\w*)")


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


def _classes() -> dict[str, list[type]]:
    """Every class defined in a gl2tors module, by name."""
    out: dict[str, list[type]] = {}
    for info in pkgutil.iter_modules(gl2tors.__path__):
        module = importlib.import_module(f"gl2tors.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                out.setdefault(name, []).append(obj)
    return out


def _has(cls: type, attr: str) -> bool:
    """An attribute of the class, or an instance attribute it annotates."""
    return hasattr(cls, attr) or any(
        attr in vars(base).get("__annotations__", {}) for base in cls.__mro__
    )


def test_readme_class_attributes_exist():
    """Every backticked `Class.attr` name anywhere in README resolves to an
    attribute of a class defined in a gl2tors module, so a deleted method or
    field cannot stay documented."""
    names = sorted(set(_CLASS_ATTR.findall(README.read_text(encoding="utf-8"))))
    assert ("Subgroup", "entries") in names and ("_MulTable", "to_subgroup") in names
    classes = _classes()
    missing = [
        f"{cls}.{attr}"
        for cls, attr in names
        if not any(_has(c, attr) for c in classes.get(cls, []))
    ]
    assert missing == []

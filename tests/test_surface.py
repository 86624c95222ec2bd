"""The package defines no code that only its own tests call.

Every function or method named in src/hsderiv must be read by name
somewhere in src/hsderiv (called, passed or looked up as an attribute) or be
exported by the package; a reference the tests need lives in tests/oracles.py
instead. The check works by name, so a method counts as read when any
attribute of that name is read.
"""

import ast
import pathlib

import hsderiv

SRC = pathlib.Path(hsderiv.__file__).parent

# defined in src, read by no src code, kept on purpose
ALLOWED = {
    "intersect": "bench/tracer.py wraps Subspace.intersect by name; it is the "
                 "reference of test_kernel_space_within_equals_the_intersection",
    "sum_with": "bench/tracer.py wraps Subspace.sum_with by name; "
                "test_subspace_toolkit_basics checks it",
    "image_of": "bench/tracer.py wraps Subspace.image_of by name",
    "image_space": "bench/tracer.py wraps linalg.image_space by name; it is "
                   "the image side of oracles.zm_by_kernel_and_image",
}


def _unread_definitions() -> dict:
    defined, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {
        name: where for name, where in defined.items()
        if not (name.startswith("__") and name.endswith("__"))
        and name not in read and name not in hsderiv.__all__
    }


def test_every_src_function_has_a_src_reader_or_is_exported():
    unread = _unread_definitions()
    stray = {name: where for name, where in unread.items() if name not in ALLOWED}
    assert not stray, f"defined in src but read only outside it: {stray}"
    # an allowlisted name that src reads again no longer needs its entry
    assert set(ALLOWED) <= set(unread), set(ALLOWED) - set(unread)

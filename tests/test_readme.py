"""The README's library example runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python block of the README's "## Library" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_runs():
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    # the verdict its comment names
    assert namespace["verdict"].simple and namespace["verdict"].theorem == "T2.1"

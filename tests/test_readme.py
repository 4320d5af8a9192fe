"""The README's library example runs and gives the values its comments name."""

from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> list[str]:
    """Lines of the first python block under the "## Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def test_readme_library_example_gives_its_commented_values():
    # A line `expr  # value` must give a value whose repr is `value`;
    # `# Fraction` asks for an instance of Fraction.  Other lines just run.
    namespace: dict = {}
    checked = 0
    for line in library_example():
        code, _, expected = line.partition("#")
        expected = expected.strip()
        if not expected:
            exec(code, namespace)
            continue
        value = eval(code.strip(), namespace)
        if expected == "Fraction":
            assert isinstance(value, Fraction), line
        else:
            assert repr(value) == expected, line
        checked += 1
    assert checked >= 7

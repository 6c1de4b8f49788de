"""The README's library example runs and gives the results its comments
state."""

from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def _python_block(heading: str) -> str:
    """The first python code block under ``heading``."""
    text = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_library_example_gives_its_commented_results():
    block = _python_block("## Library")
    namespace = {}
    exec(block, namespace)
    commented = [line.split("#", 1) for line in block.splitlines()
                 if "#" in line]
    assert [comment.strip() for _, comment in commented] == [
        "1/4 + eps, exactly", "Fraction(1, 4)",
        '"limited-noninfinitesimal-positive"']
    for code, comment in commented:
        target, assigned, _ = code.partition(" = ")
        if assigned:
            # an assignment's comment is the value as it prints
            assert str(namespace[target.strip()]) \
                == comment.split(",")[0].strip()
        else:
            assert eval(code, namespace) == eval(comment, namespace)

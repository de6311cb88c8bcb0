import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_quick_start_runs():
    # the README's library example, run statement by statement; an
    # expression whose comment starts with a literal must evaluate to it,
    # so a signature or result change cannot leave the README stale
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(block).body:
        source = ast.get_source_segment(block, statement)
        if not isinstance(statement, ast.Expr):
            exec(source, namespace)
            continue
        value = eval(source, namespace)
        comment = lines[statement.lineno - 1].partition("#")[2].split(":")[0].strip()
        try:
            expected = ast.literal_eval(comment)
        except (ValueError, SyntaxError):
            continue
        assert value == expected, source
        checked += 1
    assert checked == 3

"""Package rules: stdlib only, one refusal rule and one name per budget, one sequence codec,
roots only where a rate is displayed, a README API that runs."""

from __future__ import annotations

import ast
import inspect
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import screengame as sg

SOURCE_DIR = Path(__file__).parent.parent / "src" / "screengame"


def test_the_package_imports_only_the_standard_library():
    # numpy, scipy and networkx may serve the tests as oracles, never the package.
    sources = sorted(SOURCE_DIR.glob("*.py"))
    assert {p.name for p in sources} >= {"__init__.py", "cli.py", "model.py"}
    for path in sources:
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
        assert imported <= sys.stdlib_module_names, (path.name, imported - sys.stdlib_module_names)


def test_only_model_builds_a_budget_refusal():
    # Every budget refuses by model's one rule; its k^n form is the only other refusal.
    built = Counter(
        path.name
        for path in sorted(SOURCE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).rsplit(".", 1)[-1] == "BudgetExceededError"
    )
    assert built == {"model.py": 2}


def test_only_model_spells_sequences():
    # One codec writes and reads sequence text: only model.py names the separator
    # rule or joins or splits on , and ;.
    spelled = {
        path.name
        for path in sorted(SOURCE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "_label_separator"
        or isinstance(node, ast.alias) and node.name == "_label_separator"
        or isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("join", "split")
        and any(
            isinstance(c, ast.Constant) and c.value in (",", ";")
            for c in (node.func.value, *node.args)
        )
    }
    assert spelled == {"model.py"}


def test_roots_are_taken_only_where_the_cli_displays_a_rate():
    # Results hold exact values: the one true division and the one float() are
    # extraction_rate's root, and only the CLI, which displays rates, calls it.
    inexact, callers = Counter(), set()
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            and (path.name, func.name) == ("rate.py", "extraction_rate")
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            call = ast.unparse(node.func).rsplit(".", 1)[-1] if isinstance(node, ast.Call) else ""
            divides = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
            if divides or call == "float":
                where = "extraction_rate" if id(node) in inside else f"{path.name}:{node.lineno}"
                inexact[where] += 1
            if call == "extraction_rate":
                callers.add(path.name)
    assert inexact == {"extraction_rate": 2}
    assert callers == {"cli.py"}


def test_each_budget_keyword_is_named_after_its_flag():
    # --enum-budget is enum_budget and --mis-budget is mis_budget in every signature.
    for name in sg.__all__:
        obj = getattr(sg, name)
        if inspect.isfunction(obj):
            assert "budget" not in inspect.signature(obj).parameters, name


def test_the_readme_library_example_runs_as_its_comments_say():
    # The documented API is only what the package exports, with the values its comments state.
    readme = (SOURCE_DIR.parents[1] / "README.md").read_text(encoding="utf-8")
    names: dict = {}
    exec(readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0], names)
    result, bounds, third = names["result"], names["bounds"], Fraction(1, 3)
    assert (result.optimum, result.maximizer_count, names["recovered"]) == (4 * third, 2, 4 * third)
    assert (bounds.alpha_union, bounds.achieved, bounds.weighted_alpha) == (1, 4 * third, 5 * third)

"""Every public function and class of cpdyn is used by other code in the
package or traced by the benchmark.  A name that only tests call belongs
in ``tests/trial_oracle.py``, not in ``src/``.

A name counts as used when code in ``src/cpdyn`` outside its own
definition reads it, bare, as an attribute or in an import; the cli's
subcommand handlers count through its dispatch table, ``cli.main``
through its ``__main__`` guard.  The benchmark's ``LAYERS`` table is read
from ``bench/tracing.py``, as ``test_bench_layers.py`` reads it.
"""

import ast
from pathlib import Path

from test_bench_layers import load_tracing

SRC = Path(__file__).resolve().parent.parent / "src" / "cpdyn"


def referenced(node: ast.AST) -> set[str]:
    """The names ``node`` reads: bare names, attributes and imports."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    }


def test_every_public_name_is_used_in_src_or_traced():
    statements = [
        (path.stem, stmt)
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    uses = [referenced(stmt) for _, stmt in statements]
    traced = {f"{mod}.{fn}" for mod, fns in load_tracing().LAYERS.items() for fn in fns}
    unused = [
        f"{mod}.{stmt.name}"
        for i, (mod, stmt) in enumerate(statements)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and f"{mod}.{stmt.name}" not in traced
        and not any(stmt.name in used for j, used in enumerate(uses) if j != i)
    ]
    assert not unused, f"public names no src/ code uses and bench/tracing.py does not trace: {unused}"


# The padded Kraus route is the oracle of the block-by-block contraction of
# a Markov-block assignment: src/ holds one contraction path.
ORACLE_ONLY = ("tr_e_kraus", "padded_kraus", "padded_reduced")


def test_the_padded_kraus_route_lives_only_in_the_oracle():
    import trial_oracle

    defined = {
        node.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert all(callable(getattr(trial_oracle, name)) for name in ORACLE_ONLY)
    assert not defined & set(ORACLE_ONLY)

"""REP003: stable iteration order in fingerprint/export paths.

``RouterReport.fingerprint`` and every ``to_dict`` feed SHA-1 over
canonical JSON; the whole determinism story assumes the bytes are a
pure function of the run.  Unsorted ``dict.keys()`` / ``.values()`` /
``.items()`` or ``set`` iteration inside those paths makes the output
depend on insertion history (and, for sets, on hash randomization),
which is exactly the class of bug a reviewer cannot see in a diff.

Two checks:

* any ``json.dumps`` call must pass ``sort_keys=True`` -- canonical
  JSON is the fingerprint substrate, everywhere;
* inside export-path functions (``fingerprint`` / ``to_dict`` /
  ``to_dicts`` / ``to_json`` / ``export*`` / ``emit*``, the streaming
  encoder's ``encode*`` / ``canonical*`` / ``chunked`` /
  ``event_chunks``, and the record sources' ``*_columns`` /
  ``event_rows``; leading underscores ignored), for-loops, list
  comprehensions and generator expressions must not iterate a
  ``.keys()`` / ``.values()`` / ``.items()`` view, a ``set(...)``
  call or a set literal without an enclosing ``sorted(...)``.

Dict and set *comprehensions* are exempt: their result is keyed or
unordered and gets normalized by the sorted dump downstream.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.core import ModuleRule, SourceModule, Violation, registry
from repro.lint.names import dotted_name

#: Function names whose bodies are export/fingerprint paths: the
#: exporters, the streaming canonical encoder
#: (``repro.serving.canonical``, ``RouterReport.canonical_chunks``) and
#: the record sources whose columns it renders.
EXPORT_NAMES = (
    "fingerprint",
    "to_dict",
    "to_dicts",
    "to_json",
    "chunked",
    "event_chunks",
    "completed_columns",
    "rejected_columns",
    "event_columns",
    "event_rows",
)
EXPORT_PREFIXES = ("export", "emit", "encode", "canonical")

#: Dict-view methods whose order is insertion history.
VIEW_METHODS = ("keys", "values", "items")


def is_export_function(name: str) -> bool:
    """Whether a function name marks an export/fingerprint path
    (leading underscores ignored, so private helpers count too)."""
    name = name.lstrip("_")
    return name in EXPORT_NAMES or name.startswith(EXPORT_PREFIXES)


def _is_unordered_iterable(node: ast.AST) -> bool:
    """A dict view call, ``set(...)`` call, or set literal."""
    if isinstance(node, ast.Set):
        return True
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in ("set", "frozenset")
    return isinstance(func, ast.Attribute) and func.attr in VIEW_METHODS


def _sorted_keys_true(call: ast.Call) -> bool:
    for keyword in call.keywords:
        if keyword.arg == "sort_keys":
            value = keyword.value
            return isinstance(value, ast.Constant) and value.value is True
    return False


@registry.register
class OrderingRule(ModuleRule):
    """Flag order-unstable iteration feeding fingerprints/exports."""

    rule_id = "REP003"
    summary = (
        "sorted iteration and sort_keys=True in fingerprint/to_dict/"
        "JSON-export paths"
    )
    rationale = (
        "Fingerprints hash canonical JSON; iteration order that "
        "depends on insertion history or set hashing makes "
        "bit-identical replay silently false."
    )

    def check(self, module: SourceModule) -> List[Violation]:
        violations = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                target = dotted_name(node.func)
                if target and target.endswith("json.dumps"):
                    if not _sorted_keys_true(node):
                        violations.append(
                            module.violation(
                                node,
                                self.rule_id,
                                "json.dumps without sort_keys=True; "
                                "canonical JSON must sort keys",
                            )
                        )
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and is_export_function(node.name):
                violations.extend(self._check_export_body(module, node))
        return violations

    def _check_export_body(
        self, module: SourceModule, func: ast.AST
    ) -> List[Violation]:
        violations = []
        for node in ast.walk(func):
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for candidate in iters:
                if _is_unordered_iterable(candidate):
                    violations.append(
                        module.violation(
                            candidate,
                            self.rule_id,
                            "unsorted %s iteration inside export path "
                            "%r; wrap in sorted(...)"
                            % (
                                "set"
                                if isinstance(candidate, ast.Set)
                                or (
                                    isinstance(candidate, ast.Call)
                                    and isinstance(candidate.func, ast.Name)
                                )
                                else "dict-view",
                                getattr(func, "name", "?"),
                            ),
                        )
                    )
        return violations

"""One cold CLI call with spans: ``cold_trace.py SPANS_PATH ARG...``.

Runs ``repro``'s CLI entry point on ARG... in this fresh process, with
spans around the calls into the context, corpus, analysis, tables,
assessment and staticcheck layers. The wrappers are applied when each
module is first imported, so the import path is the one the plain CLI
takes. The command's stdout is passed through unchanged; the spans go
to SPANS_PATH as JSON.
"""

from __future__ import annotations

import contextlib
import importlib.abc
import importlib.machinery
import io
import json
import sys

from common import use_checkout_sources
from spans import Tracer


class PatchOnImport(importlib.abc.MetaPathFinder):
    """Runs a hook on a module right after its first import."""

    def __init__(self, hooks: dict) -> None:
        self.hooks = hooks

    def find_spec(self, name, path, target=None):
        hook = self.hooks.get(name)
        if hook is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            hook(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def hooks(tracer: Tracer) -> dict:
    def context(module):
        tracer.patch(module.RunContext, "corpus", "ops.context.corpus")
        tracer.patch(module.RunContext, "warm_up", "ops.context.warm_up")

    def package(module):
        tracer.patch(module, "table1_corpus", "corpus.table1_corpus")

    def cli(module):
        tracer.patch(module, "execute", "ops.kernel.execute")

    def engine(module):
        tracer.patch(module.LintEngine, "lint_package",
                     "staticcheck.lint_package")
        tracer.patch(module.LintEngine, "_lint_module",
                     "staticcheck.lint_source")
        tracer.patch(module, "ModuleInfo", "staticcheck.parse")

    return {
        "repro": package,
        "repro.ops.context": context,
        "repro.cli.main": cli,
        "repro.analysis": lambda m: tracer.patch(
            m, "section5_statistics", "analysis.section5_statistics"),
        "repro.tables": lambda m: tracer.patch(
            m, "render_table1", "tables.render_table1"),
        "repro.assessment": lambda m: tracer.patch(
            m, "assess_with_policy", "assessment.assess_with_policy"),
        "repro.datasets": lambda m: tracer.patch(
            m, "synthetic_project", "datasets.synthetic_project"),
        "repro.staticcheck": lambda m: tracer.patch(
            m, "lint_repo", "staticcheck.lint_repo"),
        "repro.staticcheck.engine": engine,
    }


def main(spans_path: str, argv: list[str]) -> int:
    use_checkout_sources()
    tracer = Tracer()
    sys.meta_path.insert(0, PatchOnImport(hooks(tracer)))
    from repro.cli.main import main as cli_main

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = tracer.wrap("cli.main", cli_main)(argv)
    sys.stdout.write(captured.getvalue())
    with open(spans_path, "w", encoding="utf-8") as stream:
        json.dump(tracer.spans, stream)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))

"""Core of the policy linter: findings, modules, rules and the engine.

The paper's position (§4–§5) is that safeguards must be *operational*:
it is not enough to promise anonymization, controlled sharing and
reproducibility — the machinery has to enforce them. ``staticcheck``
turns that position on this codebase itself: a small AST linter whose
rules encode the safeguards the repro package claims to implement.

Design
------

* **One parse per file.** :class:`ModuleInfo` parses the source once;
  the engine walks the resulting tree once, dispatching each node to
  every rule registered for that node type. Rules never re-parse.
* **Three rule granularities.** A rule may register for AST node
  types (:attr:`Rule.node_types`), inspect the raw source of a module
  (:meth:`Rule.check_module`), or run once over the whole package
  (:meth:`Rule.check_project`), receiving the
  :class:`~repro.staticcheck.project.Project` graph — symbol table,
  import graph and call graph — built exactly once per run. The
  semi-static consistency rule and both interprocedural rules
  (purity, worker-safety) live at this granularity.
* **Suppressions are data.** ``# repro: noqa[R2] reason`` on the
  offending line marks a finding as suppressed; the engine keeps the
  finding (with its justification) so reporters and the baseline can
  account for every accepted exception.
* **Findings are content-addressed.** :meth:`LintEngine.lint_package`
  can reuse per-file findings from an incremental cache keyed on the
  file digest and the rule-set signature (ids + versions), and fan
  cold files out to a process pool — see
  :mod:`repro.staticcheck.cache` and ``docs/static-analysis.md``.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import re
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import StaticCheckError

if TYPE_CHECKING:  # circular at runtime: project.py imports engine
    from .project import Project

__all__ = [
    "Finding",
    "LintEngine",
    "ModuleInfo",
    "Rule",
    "RuleRegistry",
    "Suppression",
    "default_registry",
    "package_root",
    "unsuppressed",
]

#: ``# repro: noqa[R1]`` or ``# repro: noqa[R1,R3] justification text``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\[([A-Za-z0-9_,\s]+)\]\s*(.*)$"
)


@dataclasses.dataclass(frozen=True)
class Suppression:
    """One inline ``# repro: noqa[...]`` comment."""

    line: int
    rule_ids: frozenset[str]
    justification: str


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule_id: str
    path: str
    line: int
    message: str
    suppressed: bool = False
    justification: str = ""

    def to_dict(self) -> dict:
        """JSON-serialisable representation (one object per finding)."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "suppressed": self.suppressed,
            "justification": self.justification,
        }

    def describe(self) -> str:
        """The conventional ``path:line: [RID] message`` line."""
        mark = " (suppressed)" if self.suppressed else ""
        return (
            f"{self.path}:{self.line}: [{self.rule_id}] "
            f"{self.message}{mark}"
        )


class ModuleInfo:
    """A parsed source module: path, source, AST and suppressions.

    ``relpath`` is the path relative to the linted package root (posix
    separators, e.g. ``"reporting/dmp.py"``) — rules match on it.
    ``path`` is the display path used in findings.
    """

    def __init__(
        self, source: str, relpath: str, path: str | None = None
    ) -> None:
        self.source = source
        self.relpath = relpath.replace("\\", "/")
        self.path = path or self.relpath
        self.lines: tuple[str, ...] = tuple(source.splitlines())
        try:
            self.tree: ast.Module = ast.parse(source)
        except SyntaxError as exc:
            raise StaticCheckError(
                f"cannot parse {self.path}: {exc}"
            ) from exc
        self.suppressions: dict[int, Suppression] = {}
        for number, text in enumerate(self.lines, start=1):
            match = _NOQA_RE.search(text)
            if match:
                ids = frozenset(
                    part.strip()
                    for part in match.group(1).split(",")
                    if part.strip()
                )
                self.suppressions[number] = Suppression(
                    line=number,
                    rule_ids=ids,
                    justification=match.group(2).strip(),
                )
        self._imports: dict[str, str] | None = None

    def import_aliases(self) -> dict[str, str]:
        """Map every imported local name to its dotted origin.

        ``import random`` → ``{"random": "random"}``; ``from random
        import choice as c`` → ``{"c": "random.choice"}``. Relative
        imports are resolved against the module's package path, so in
        ``reporting/dmp.py`` a ``from ..datasets import X`` yields
        ``{"X": "repro.datasets.X"}``.
        """
        if self._imports is not None:
            return self._imports
        aliases: dict[str, str] = {}
        package_parts = ["repro", *self.relpath.split("/")[:-1]]
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    local = name.asname or name.name.split(".")[0]
                    origin = (
                        name.name if name.asname else name.name.split(".")[0]
                    )
                    aliases[local] = origin
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base_parts = package_parts[
                        : len(package_parts) - (node.level - 1)
                    ]
                    base = ".".join(
                        base_parts + ([node.module] if node.module else [])
                    )
                else:
                    base = node.module or ""
                for name in node.names:
                    if name.name == "*":
                        continue
                    local = name.asname or name.name
                    aliases[local] = f"{base}.{name.name}" if base else (
                        name.name
                    )
        self._imports = aliases
        return aliases

    def resolve_dotted(self, node: ast.AST) -> str | None:
        """Resolve a ``Name``/``Attribute`` chain to a dotted origin.

        ``datetime.datetime.now`` with ``import datetime`` resolves to
        ``"datetime.datetime.now"``; unknown roots return ``None``.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        origin = self.import_aliases().get(node.id)
        if origin is None:
            return None
        return ".".join([origin, *reversed(parts)])

    def suppression_for(self, rule_id: str, line: int) -> Suppression | None:
        """The suppression covering *rule_id* at *line*, if any."""
        suppression = self.suppressions.get(line)
        if suppression and rule_id in suppression.rule_ids:
            return suppression
        return None


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id`, :attr:`name` and :attr:`description`,
    then implement any of the three hooks. The engine guarantees each
    file is parsed exactly once; :meth:`visit` receives nodes from the
    engine's single walk of that tree.
    """

    id: str = ""
    name: str = ""
    description: str = ""
    #: Bumped whenever the rule's logic changes, so the incremental
    #: cache never serves findings computed by an older rule.
    version: int = 1
    #: AST node types this rule wants dispatched to :meth:`visit`.
    node_types: tuple[type[ast.AST], ...] = ()

    def applies_to(self, module: ModuleInfo) -> bool:
        """Whether the rule runs on *module* (default: every module)."""
        return True

    def visit(
        self, node: ast.AST, module: ModuleInfo
    ) -> Iterable[Finding]:
        """Handle one dispatched node; yield findings."""
        return ()

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        """Whole-module hook (raw source / own traversal); findings."""
        return ()

    def check_project(
        self, project: "Project"
    ) -> Iterable[Finding]:
        """Once-per-run whole-program hook; yields findings.

        *project* is the :class:`~repro.staticcheck.project.Project`
        graph over every linted module — iterate it for the plain
        module list, or use its symbol table / call graph for
        interprocedural rules.
        """
        return ()


class RuleRegistry:
    """Ordered registry of rule instances, addressable by id."""

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        self._rules: dict[str, Rule] = {}
        for rule in rules:
            self.register(rule)

    def register(self, rule: Rule) -> Rule:
        """Add *rule*; ids must be unique and non-empty."""
        if not rule.id:
            raise StaticCheckError("rule id must be non-empty")
        if rule.id in self._rules:
            raise StaticCheckError(f"duplicate rule id {rule.id!r}")
        self._rules[rule.id] = rule
        return rule

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules.values())

    def __len__(self) -> int:
        return len(self._rules)

    @property
    def rule_ids(self) -> tuple[str, ...]:
        return tuple(self._rules)

    def select(self, rule_ids: Iterable[str]) -> "RuleRegistry":
        """A sub-registry containing only *rule_ids* (order kept)."""
        wanted = list(rule_ids)
        unknown = [rid for rid in wanted if rid not in self._rules]
        if unknown:
            raise StaticCheckError(
                f"unknown rule ids {unknown}; known: "
                f"{sorted(self._rules)}"
            )
        return RuleRegistry(
            rule
            for rule in self._rules.values()
            if rule.id in wanted
        )


def default_registry() -> RuleRegistry:
    """The registry with all ten shipped rules (R1–R10)."""
    from .rules_audit import AuditBoundaryRule
    from .rules_consistency import ConsistencyRule
    from .rules_dataflow import SafeguardBoundaryRule
    from .rules_determinism import DeterminismRule
    from .rules_layering import LayeringRule
    from .rules_naming import TelemetryNamingRule
    from .rules_pii import PIILiteralRule
    from .rules_policy import PolicyLiteralRule
    from .rules_purity import PurityRule
    from .rules_workers import WorkerSafetyRule

    return RuleRegistry(
        (
            SafeguardBoundaryRule(),
            DeterminismRule(),
            PIILiteralRule(),
            ConsistencyRule(),
            AuditBoundaryRule(),
            TelemetryNamingRule(),
            LayeringRule(),
            PurityRule(),
            WorkerSafetyRule(),
            PolicyLiteralRule(),
        )
    )


def package_root() -> Path:
    """The directory of the installed ``repro`` package (lint target)."""
    import repro

    return Path(repro.__file__).resolve().parent


class LintEngine:
    """Runs a rule registry over sources, files or the whole package."""

    def __init__(self, registry: RuleRegistry | None = None) -> None:
        self.registry = registry or default_registry()

    # -- single-module lint --------------------------------------------
    def lint_source(
        self, source: str, relpath: str, path: str | None = None
    ) -> list[Finding]:
        """Lint one source string (fixtures, tests)."""
        module = ModuleInfo(source, relpath, path)
        return self._lint_module(module)

    def _lint_module(self, module: ModuleInfo) -> list[Finding]:
        rules = [r for r in self.registry if r.applies_to(module)]
        dispatch: dict[type[ast.AST], list[Rule]] = {}
        for rule in rules:
            for node_type in rule.node_types:
                dispatch.setdefault(node_type, []).append(rule)
        findings: list[Finding] = []
        if dispatch:
            for node in ast.walk(module.tree):
                for rule in dispatch.get(type(node), ()):
                    findings.extend(rule.visit(node, module))
        for rule in rules:
            findings.extend(rule.check_module(module))
        return [self._apply_suppression(f, module) for f in findings]

    @staticmethod
    def _apply_suppression(
        finding: Finding, module: ModuleInfo
    ) -> Finding:
        suppression = module.suppression_for(
            finding.rule_id, finding.line
        )
        if suppression is None:
            return finding
        return dataclasses.replace(
            finding,
            suppressed=True,
            justification=suppression.justification,
        )

    # -- package lint ---------------------------------------------------
    def ruleset_signature(self) -> str:
        """Digest of the registry's (id, version, class) tuples.

        Part of every incremental-cache key: a rule upgrade, removal
        or substitution changes the signature, so cached findings
        computed under a different rule set are never served.
        """
        payload = json.dumps(
            sorted(
                (rule.id, rule.version, type(rule).__name__)
                for rule in self.registry
            )
        )
        return hashlib.blake2b(
            payload.encode("utf-8"), digest_size=16
        ).hexdigest()

    def lint_package(
        self,
        root: Path | None = None,
        *,
        cache_path: Path | None = None,
        workers: int = 1,
        changed_only: bool = False,
    ) -> list[Finding]:
        """Lint every ``.py`` file under *root* (default: ``repro``).

        Per-module rules run file by file; project rules run once at
        the end over the :class:`~repro.staticcheck.project.Project`
        graph. Rules match on paths relative to *root*, so a fixture
        tree mirroring the package layout (``datasets/x.py``,
        ``reporting/x.py``) exercises the same scoping as the real
        source. Findings come back sorted by path then line.

        *cache_path* enables the content-addressed incremental cache:
        files whose digest matches the cache are served without being
        parsed, and whole-program findings are reused while no byte
        of the tree changed. *workers* > 1 fans files that do need
        linting out to a process pool (falling back to serial when
        the registry holds rules a worker cannot reconstruct from the
        default set). *changed_only* reports per-file findings only
        for files that missed the cache — plus whole-program findings
        whenever the project graph changed.
        """
        explicit_root = root is not None
        root = Path(root) if explicit_root else package_root()
        if not root.is_dir():
            raise StaticCheckError(
                f"lint root {root} is not a directory"
            )
        if explicit_root:
            try:
                prefix = root.resolve().relative_to(
                    Path.cwd()
                ).as_posix()
            except ValueError:
                prefix = root.as_posix()
        else:
            prefix = "src/repro"

        # relpath → (display, source, digest); one read per file, no
        # parse yet — cache hits never pay for one.
        entries: dict[str, tuple[str, str, str]] = {}
        for file in sorted(root.rglob("*.py")):
            relpath = file.relative_to(root).as_posix()
            display = (
                f"{prefix}/{relpath}" if prefix != "." else relpath
            )
            raw = file.read_bytes()
            digest = hashlib.blake2b(
                raw, digest_size=16
            ).hexdigest()
            entries[relpath] = (
                display,
                raw.decode("utf-8"),
                digest,
            )

        cache = None
        if cache_path is not None:
            from .cache import LintCache

            cache = LintCache.load(
                cache_path, self.ruleset_signature()
            )

        module_findings: dict[str, list[Finding]] = {}
        modules: dict[str, ModuleInfo] = {}
        stale: list[str] = []
        for relpath, (display, source, digest) in entries.items():
            cached = (
                cache.module_findings(relpath, digest)
                if cache is not None
                else None
            )
            if cached is not None:
                module_findings[relpath] = cached
            else:
                stale.append(relpath)

        if stale:
            parallel = (
                workers > 1
                and len(stale) > 1
                and self._parallel_safe()
            )
            if parallel:
                for relpath, found in self._lint_parallel(
                    entries, stale, workers
                ):
                    module_findings[relpath] = found
            else:
                for relpath in stale:
                    display, source, _ = entries[relpath]
                    module = ModuleInfo(source, relpath, display)
                    modules[relpath] = module
                    module_findings[relpath] = self._lint_module(
                        module
                    )

        # Whole-program findings, keyed on every file's digest plus
        # the rule-set signature (via the cache file's guard).
        hasher = hashlib.blake2b(digest_size=16)
        for relpath in sorted(entries):
            hasher.update(relpath.encode("utf-8"))
            hasher.update(b"\x00")
            hasher.update(entries[relpath][2].encode("utf-8"))
            hasher.update(b"\x00")
        project_key = hasher.hexdigest()

        project_findings = (
            cache.project_findings(project_key)
            if cache is not None
            else None
        )
        project_recomputed = project_findings is None
        if project_recomputed:
            from .project import Project

            for relpath, (display, source, _) in entries.items():
                if relpath not in modules:
                    modules[relpath] = ModuleInfo(
                        source, relpath, display
                    )
            project = Project(
                [modules[r] for r in sorted(entries)],
                {r: entries[r][2] for r in entries},
            )
            stripper = f"{prefix}/" if prefix != "." else ""
            project_findings = []
            for rule in self.registry:
                for finding in rule.check_project(project):
                    module = modules.get(
                        finding.path.removeprefix(stripper)
                        if stripper
                        else finding.path
                    )
                    if module is not None:
                        finding = self._apply_suppression(
                            finding, module
                        )
                    project_findings.append(finding)

        if cache is not None:
            for relpath in stale:
                cache.store_module(
                    relpath,
                    entries[relpath][2],
                    module_findings[relpath],
                )
            if project_recomputed:
                cache.store_project(project_key, project_findings)
            cache.prune(list(entries))
            cache.save()

        reported = stale if changed_only else list(entries)
        findings: list[Finding] = []
        for relpath in reported:
            findings.extend(module_findings[relpath])
        if not changed_only or project_recomputed:
            findings.extend(project_findings)
        findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
        return findings

    def _parallel_safe(self) -> bool:
        """Whether workers can rebuild this registry from rule ids."""
        defaults = {
            rule.id: type(rule) for rule in default_registry()
        }
        return all(
            defaults.get(rule.id) is type(rule)
            for rule in self.registry
        )

    def _lint_parallel(
        self,
        entries: dict[str, tuple[str, str, str]],
        stale: list[str],
        workers: int,
    ) -> list[tuple[str, list[Finding]]]:
        """Fan per-module linting of *stale* out to a process pool.

        Chunks drain through the shared ordered fan-out
        (:class:`~repro.fanout.OrderedFanout`), imported here so a
        serial lint never loads it. A dead worker surfaces as
        :class:`StaticCheckError` naming the lost chunk, after one
        ``staticcheck/worker-lost`` audit event and flight incident.
        """
        import concurrent.futures

        from ..fanout import OrderedFanout, worker_lost

        rule_ids = self.registry.rule_ids
        chunks: list[list[tuple[str, str, str]]] = [
            [] for _ in range(min(workers, len(stale)))
        ]
        for index, relpath in enumerate(stale):
            display, source, _ = entries[relpath]
            chunks[index % len(chunks)].append(
                (relpath, display, source)
            )
        results: list[tuple[str, list[Finding]]] = []
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=len(chunks)
        ) as pool:
            for found in OrderedFanout(
                lambda item: pool.submit(_lint_chunk, rule_ids, item[1]),
                enumerate(chunks),
                workers=len(chunks),
                lost=lambda item, exc: worker_lost(
                    "staticcheck",
                    f"chunk {item[0]}",
                    exc,
                    workers=len(chunks),
                    error=StaticCheckError,
                ),
            ):
                results.extend(found)
        return results


def _lint_chunk(
    rule_ids: tuple[str, ...],
    chunk: list[tuple[str, str, str]],
) -> list[tuple[str, list[Finding]]]:
    """Process-pool worker: lint a batch of (relpath, display, source).

    Module-level and picklable by construction (R9's own contract):
    the registry is rebuilt in-process from rule ids, sources travel
    by value, and frozen :class:`Finding` instances travel back.
    """
    engine = LintEngine(default_registry().select(rule_ids))
    results: list[tuple[str, list[Finding]]] = []
    for relpath, display, source in chunk:
        module = ModuleInfo(source, relpath, display)
        results.append((relpath, engine._lint_module(module)))
    return results


def unsuppressed(findings: Iterable[Finding]) -> list[Finding]:
    """The findings that actually fail a lint run."""
    return [f for f in findings if not f.suppressed]

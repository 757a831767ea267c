"""Gated lint runner: best available checker wins.

Preference order:

1. ``ruff check`` (if importable or on PATH)
2. ``python -m pyflakes`` (if importable)
3. stdlib fallback: byte-compile everything (syntax errors) plus an
   AST pass flagging unused imports — the pyflakes subset that matters
   most for this codebase.

The container deliberately ships no third-party linters, so the
fallback is the common path; the runner upgrades itself automatically
wherever ruff or pyflakes happen to exist.

Independently of which checker wins, an AST pass over ``src/`` forbids
silent error swallowing: bare ``except:`` and ``except Exception:``
(or ``except BaseException:``) with a body that only passes.  The
fault-tolerant pool runtime leans on exceptions for crash, timeout,
and corruption recovery — a swallowed error there turns a recoverable
fault into silent data loss.

The same pass forbids ``assert`` statements under ``src/``: they are
stripped under ``python -O``, so runtime validation must raise a typed
error from :mod:`repro.errors` or go through the contract-guard layer
(``docs/contracts.md``) instead.  Tests and benchmarks are exempt —
``assert`` is pytest's native idiom there.

It also forbids constructing ``random.Random`` under ``src/`` outside
``parallel/seeds.py``: every RNG must come from
:func:`repro.parallel.seeds.derive_rng` or
:func:`repro.parallel.seeds.rng_from_seed`, so the cross-engine
byte-identity guarantee (``docs/statespace.md``) rests on one seeding
discipline instead of scattered constructor calls.

Append-mode ``open()`` (and ``Path.open``) under ``src/`` is forbidden
outside ``repro/durable_io.py``: every append-only log — checkpoints,
manifests, corpus files, the job-service WAL — must go through the
durable-io helper's fsynced, torn-tail-repairing appender
(``docs/service.md``), so crash recovery rests on one write
discipline instead of scattered file handles.

Similarly, ``import numpy`` is forbidden anywhere under ``src/``: the
library runs on the standard library alone.

The cyclic collector's process-wide switches (``gc.disable``,
``gc.enable``, ``gc.freeze``, ``gc.unfreeze`` and ``gc.set_threshold``,
called or imported from ``gc``) are forbidden under ``src/`` outside
``repro/statespace/engine.py``: the compile scope pauses the collector
around a command's space compile and freezes what it built until the
command ends (``docs/statespace.md``), so collector state has one owner
that restores it instead of scattered toggles that leak past a command.

Likewise, importing a registered case study's algorithm package
(``repro.algorithms.lehmann_rabin``, ``benor``, ``election`` or
``herman``) under ``src/`` is forbidden outside ``src/repro/models/``
and ``src/repro/algorithms/``: the verification stack reaches case
studies exclusively through the model registry (``repro.models``), and
this ban keeps the pluggable-model decoupling enforced — a new
hard-wired case-study dependency in the CLI, analysis, statespace,
corpus, or service layers would silently re-couple the stack to one
case study (``docs/models.md``).  ``repro.algorithms.coins`` (Example
4.1, behind ``repro independence``) and ``repro.algorithms.ordered``
are not registered models and stay outside the rule.

Finally, every ``incr(``/``gauge(``/``observe(``/``counter(``/
``histogram(`` call site under ``src/`` whose first argument is a
string literal must name a metric declared in
``src/repro/obs/names.py`` (exactly, or extending a declared dynamic
prefix such as ``ledger.rule.``).  A typo'd name would otherwise
record into a dead metric that no table, manifest, or ``runs diff``
ever reads.

A corpus-sync pass (mirroring the metric-name rule) keeps the defect
corpus and the error taxonomy aligned: every strict subclass of
``ContractViolation`` / ``PoolFaultError`` / ``StateSpaceError`` /
``ServiceError`` / ``ModelRegistryError`` in
``src/repro/errors.py`` must have at least one entry in
``src/repro/corpus/registry.py`` claiming it via a literal
``expected_class="Name"`` keyword, and every claimed name must be a
real taxonomy subclass.  A taxonomy class without a corpus entry is an
error class no engine is forced to classify identically — exactly the
gap the differential corpus exists to close (``docs/corpus.md``).

Usage: ``python tools/lint.py [paths...]`` (defaults to src tests
benchmarks tools). Exits nonzero on findings.
"""

from __future__ import annotations

import ast
import compileall
import importlib.util
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

DEFAULT_PATHS = ("src", "tests", "benchmarks", "tools")


def run_external(argv, paths):
    result = subprocess.run([*argv, *paths])
    return result.returncode


def python_files(paths):
    for path in paths:
        path = Path(path)
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            yield from sorted(path.rglob("*.py"))


class ImportUsage(ast.NodeVisitor):
    """Collects imported names and every name/attribute-root used."""

    def __init__(self):
        self.imports = {}  # name -> line
        self.used = set()

    def visit_Import(self, node):
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            self.imports[name] = node.lineno

    def visit_ImportFrom(self, node):
        if node.module == "__future__":
            return  # compiler directives, not bindings
        for alias in node.names:
            if alias.name == "*":
                continue
            name = alias.asname or alias.name
            self.imports[name] = node.lineno

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.used.add(node.id)

    def visit_Attribute(self, node):
        self.generic_visit(node)


def unused_imports(path):
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError:
        return []  # compileall already reported it
    usage = ImportUsage()
    usage.visit(tree)
    # Names in any string constant count as used: __all__ entries,
    # string annotations, docstring cross-references.  Generous on
    # purpose — a fallback linter must not produce false positives.
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            usage.used.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", node.value))
    return [
        (line, name)
        for name, line in sorted(usage.imports.items(), key=lambda kv: kv[1])
        if name not in usage.used and not name.startswith("_")
    ]


def _is_src_path(path):
    return "src" in Path(path).parts


def _swallows_everything(handler):
    """True for ``except:`` / ``except Exception:`` / ``except BaseException:``."""
    if handler.type is None:
        return True
    node = handler.type
    return isinstance(node, ast.Name) and node.id in ("Exception", "BaseException")


def _body_only_passes(body):
    """True when the handler does nothing: pass / ... / bare strings."""
    def inert(stmt):
        if isinstance(stmt, ast.Pass):
            return True
        return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)

    return all(inert(stmt) for stmt in body)


def _constructs_random(node):
    """True for ``random.Random(...)`` / ``Random(...)`` call sites."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "Random"
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "Random"
        and isinstance(func.value, ast.Name)
        and func.value.id == "random"
    )


def _is_seeds_module(path):
    return Path(path).parts[-2:] == ("parallel", "seeds.py")


def _is_durable_io_module(path):
    return Path(path).parts[-2:] == ("repro", "durable_io.py")


def _append_mode_open(node):
    """True for ``open(..., 'a...')`` / ``thing.open('a...')`` sites."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode_arg = node.args[1] if len(node.args) > 1 else None
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        mode_arg = node.args[0] if node.args else None
    else:
        return False
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode_arg = keyword.value
    return (
        isinstance(mode_arg, ast.Constant)
        and isinstance(mode_arg.value, str)
        and "a" in mode_arg.value
    )


def _imports_numpy(node):
    """True for ``import numpy`` / ``from numpy... import`` statements."""
    if isinstance(node, ast.Import):
        return any(
            alias.name == "numpy" or alias.name.startswith("numpy.")
            for alias in node.names
        )
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module == "numpy" or module.startswith("numpy.")
    return False


#: The ``gc`` functions that change process-wide collector state.
_GC_SWITCHES = ("disable", "enable", "freeze", "unfreeze", "set_threshold")


def _is_engine_module(path):
    return Path(path).parts[-3:] == ("repro", "statespace", "engine.py")


def _switches_gc(node):
    """True for ``gc.<switch>(...)`` calls and ``from gc import <switch>``."""
    if isinstance(node, ast.Call):
        func = node.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr in _GC_SWITCHES
            and isinstance(func.value, ast.Name)
            and func.value.id == "gc"
        )
    if isinstance(node, ast.ImportFrom) and node.module == "gc":
        return any(alias.name in _GC_SWITCHES for alias in node.names)
    return False


#: The algorithm packages behind the registered models.
_CASE_STUDIES = ("lehmann_rabin", "benor", "election", "herman")


def _imported_case_study(node):
    """The case study an import reaches, or ``None``.

    Covers ``import repro.algorithms.<study>[.sub]``,
    ``from repro.algorithms.<study>[.sub] import ...``, and
    ``from repro.algorithms import <study>``.
    """
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        module = node.module or ""
        modules = [module]
        if module == "repro.algorithms":
            modules = [f"{module}.{alias.name}" for alias in node.names]
    else:
        return None
    for module in modules:
        parts = module.split(".")
        if parts[:2] == ["repro", "algorithms"] and len(parts) > 2:
            if parts[2] in _CASE_STUDIES:
                return parts[2]
    return None


def _may_import_algorithms(path):
    """True for the packages allowed to import concrete algorithms."""
    parts = Path(path).parts
    for anchor in ("models", "algorithms"):
        if anchor in parts:
            index = parts.index(anchor)
            if index >= 1 and parts[index - 1] == "repro":
                return True
    return False


def banned_handlers(path):
    """Banned constructs under ``src/``: findings as (line, message).

    Covers silent error swallowing, runtime-validation ``assert``, and
    out-of-band ``random.Random`` construction.
    """
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError:
        return []  # the active checker reports it
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            findings.append(
                (node.lineno, "bare 'except:' — name the exceptions")
            )
        elif _swallows_everything(node) and _body_only_passes(node.body):
            findings.append(
                (node.lineno,
                 "'except Exception: pass' swallows errors silently — "
                 "handle or re-raise")
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            findings.append(
                (node.lineno,
                 "'assert' is stripped under python -O — raise a typed "
                 "repro.errors exception or use the contracts guard layer")
            )
    if not _is_seeds_module(path):
        for node in ast.walk(tree):
            if _constructs_random(node):
                findings.append(
                    (node.lineno,
                     "construct RNGs via repro.parallel.seeds "
                     "(derive_rng / rng_from_seed), not random.Random — "
                     "one seeding discipline backs the cross-engine "
                     "byte-identity guarantee")
                )
    if not _is_durable_io_module(path):
        for node in ast.walk(tree):
            if _append_mode_open(node):
                findings.append(
                    (node.lineno,
                     "append-mode open() must go through "
                     "repro.durable_io (DurableAppender / "
                     "append_json_line) — one fsynced, "
                     "torn-tail-repairing append discipline backs "
                     "crash recovery")
                )
    if not _is_engine_module(path):
        for node in ast.walk(tree):
            if _switches_gc(node):
                findings.append(
                    (node.lineno,
                     "collector switches (gc.disable/enable/freeze/"
                     "unfreeze/set_threshold) belong to "
                     "repro.statespace.engine's compile scope, which "
                     "restores them when the command ends")
                )
    for node in ast.walk(tree):
        if _imports_numpy(node):
            findings.append(
                (node.lineno,
                 "no numpy under src/ — the library runs on the "
                 "standard library alone")
            )
    if not _may_import_algorithms(path):
        for node in ast.walk(tree):
            study = _imported_case_study(node)
            if study is not None:
                findings.append(
                    (node.lineno,
                     f"import repro.algorithms.{study} only inside "
                     "src/repro/models/ or src/repro/algorithms/ — the "
                     "rest of the stack reaches case studies through the "
                     "model registry (repro.models), keeping the "
                     "pluggable-model decoupling enforced "
                     "(docs/models.md)")
                )
    return findings


# -- metric-name declarations ------------------------------------------

#: The obs helper / Metrics method names whose literal first argument
#: is a metric name.
_METRIC_CALLS = ("incr", "gauge", "observe", "counter", "histogram")

_NAMES_MODULE = (
    Path(__file__).resolve().parent.parent
    / "src" / "repro" / "obs" / "names.py"
)


def metric_catalog(names_path=_NAMES_MODULE):
    """(exact names, dynamic prefixes) declared in ``obs/names.py``.

    Parsed from the AST (the linter must not import ``src/``): the keys
    of the ``METRICS`` and ``DYNAMIC_PREFIXES`` dict literals.  Returns
    ``None`` when the module is missing or unparseable — the pass is
    then skipped rather than flagging everything.
    """
    try:
        tree = ast.parse(names_path.read_text(), filename=str(names_path))
    except (OSError, SyntaxError):
        return None
    exact = set()
    prefixes = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        else:
            continue
        names = {t.id for t in targets if isinstance(t, ast.Name)}
        if not isinstance(node.value, ast.Dict):
            continue
        keys = [
            key.value
            for key in node.value.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        ]
        if "METRICS" in names:
            exact.update(keys)
        elif "DYNAMIC_PREFIXES" in names:
            prefixes.extend(keys)
    if not exact:
        return None
    return exact, prefixes


def _literal_metric_name(node):
    """The literal first argument of an obs metric call, if it is one."""
    if not isinstance(node, ast.Call) or not node.args:
        return None
    func = node.func
    if isinstance(func, ast.Attribute):
        called = func.attr
    elif isinstance(func, ast.Name):
        called = func.id
    else:
        return None
    if called not in _METRIC_CALLS:
        return None
    first = node.args[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value
    return None


def undeclared_metric_sites(path, exact, prefixes):
    """Call sites in ``path`` naming metrics absent from the catalog."""
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError:
        return []  # the active checker reports it
    findings = []
    for node in ast.walk(tree):
        name = _literal_metric_name(node)
        if name is None:
            continue
        if name in exact:
            continue
        if any(name.startswith(prefix) for prefix in prefixes):
            continue
        findings.append(
            (node.lineno,
             f"metric name {name!r} is not declared in "
             f"src/repro/obs/names.py — declare it there (or extend a "
             f"dynamic prefix) so it shows up in the catalog, docs, and "
             f"runs diff")
        )
    return findings


# -- corpus <-> error-taxonomy sync ------------------------------------

_ERRORS_MODULE = (
    Path(__file__).resolve().parent.parent
    / "src" / "repro" / "errors.py"
)

_CORPUS_REGISTRY_MODULE = (
    Path(__file__).resolve().parent.parent
    / "src" / "repro" / "corpus" / "registry.py"
)

#: The public taxonomy roots whose strict subclasses the defect corpus
#: must cover — the contracts, pool-fault, and state-space families.
_TAXONOMY_ROOTS = (
    "ContractViolation",
    "PoolFaultError",
    "StateSpaceError",
    "ServiceError",
    "ModelRegistryError",
)


def taxonomy_classes(errors_path=_ERRORS_MODULE):
    """Strict subclasses of the public taxonomy roots in ``errors.py``.

    Parsed from the AST (the linter must not import ``src/``); returns
    ``None`` when the module is missing or unparseable — the sync pass
    is then skipped rather than flagging everything.
    """
    try:
        tree = ast.parse(errors_path.read_text(), filename=str(errors_path))
    except (OSError, SyntaxError):
        return None
    bases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bases[node.name] = [
                base.id for base in node.bases
                if isinstance(base, ast.Name)
            ]
    if not bases:
        return None

    def descends(name, root, seen=()):
        if name in seen:
            return False
        for base in bases.get(name, ()):
            if base == root or descends(base, root, (*seen, name)):
                return True
        return False

    required = {
        name
        for name in bases
        if name not in _TAXONOMY_ROOTS
        and any(descends(name, root) for root in _TAXONOMY_ROOTS)
    }
    return required or None


def corpus_expected_classes(registry_path=_CORPUS_REGISTRY_MODULE):
    """``expected_class="..."`` literals in the corpus registry, with
    the line of their call site.  ``None`` when the registry is missing
    or unparseable (graceful skip, mirroring :func:`metric_catalog`)."""
    try:
        tree = ast.parse(
            registry_path.read_text(), filename=str(registry_path)
        )
    except (OSError, SyntaxError):
        return None
    declared = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        for keyword in node.keywords:
            if (
                keyword.arg == "expected_class"
                and isinstance(keyword.value, ast.Constant)
                and isinstance(keyword.value.value, str)
            ):
                declared.setdefault(keyword.value.value, node.lineno)
    return declared or None


def corpus_sync_findings(
    errors_path=_ERRORS_MODULE, registry_path=_CORPUS_REGISTRY_MODULE
):
    """Both directions of the corpus/taxonomy contract, as findings.

    Every strict subclass of a public taxonomy root must have >= 1
    corpus entry claiming it (``expected_class="Name"``), and every
    claimed class must be a real taxonomy subclass.
    """
    required = taxonomy_classes(errors_path)
    declared = corpus_expected_classes(registry_path)
    if required is None or declared is None:
        return []
    findings = []
    for name, line in sorted(declared.items()):
        if name not in required:
            findings.append(
                (registry_path, line,
                 f"corpus entry claims expected_class={name!r}, which is "
                 f"not a subclass of {'/'.join(_TAXONOMY_ROOTS)} in "
                 f"src/repro/errors.py")
            )
    for name in sorted(required - set(declared)):
        findings.append(
            (registry_path, 1,
             f"error-taxonomy class {name!r} has no defect-corpus entry "
             f"— add one to src/repro/corpus/registry.py with "
             f"expected_class={name!r} so every engine is forced to "
             f"classify it identically")
        )
    return findings


def run_ban_check(paths):
    """Always-on pass: forbid banned constructs in ``src/``."""
    findings = 0
    catalog = metric_catalog()
    for path in python_files(paths):
        if not _is_src_path(path):
            continue
        for line, message in banned_handlers(path):
            print(f"{path}:{line}: {message}")
            findings += 1
        if catalog is not None and path.resolve() != _NAMES_MODULE:
            for line, message in undeclared_metric_sites(path, *catalog):
                print(f"{path}:{line}: {message}")
                findings += 1
    for path, line, message in corpus_sync_findings():
        print(f"{path}:{line}: {message}")
        findings += 1
    if findings:
        print(f"{findings} banned construct(s)")
    return 0 if not findings else 1


def run_fallback(paths):
    # Keep bytecode out of the tree: __pycache__ litter from a lint run
    # should never show up in `git status`.
    with tempfile.TemporaryDirectory() as cache_dir:
        sys.pycache_prefix = cache_dir
        try:
            ok = all(
                compileall.compile_dir(p, quiet=1, force=True)
                if Path(p).is_dir()
                else compileall.compile_file(p, quiet=1, force=True)
                for p in paths
            )
        finally:
            sys.pycache_prefix = None
    findings = 0
    for path in python_files(paths):
        for line, name in unused_imports(path):
            print(f"{path}:{line}: unused import '{name}'")
            findings += 1
    if findings:
        print(f"{findings} unused import(s)")
    return 0 if ok and not findings else 1


def main(argv=None):
    paths = (argv if argv else list(sys.argv[1:])) or [
        p for p in DEFAULT_PATHS if Path(p).exists()
    ]
    banned = run_ban_check(paths)
    if shutil.which("ruff"):
        return run_external(["ruff", "check"], paths) or banned
    if importlib.util.find_spec("pyflakes"):
        return run_external([sys.executable, "-m", "pyflakes"], paths) or banned
    print("lint: no ruff/pyflakes; using stdlib fallback "
          "(syntax + unused imports)")
    return run_fallback(paths) or banned


if __name__ == "__main__":
    sys.exit(main())

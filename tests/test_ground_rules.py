"""The package depends on numpy and the standard library only."""

import ast
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
ALLOWED_OUTSIDE_STDLIB = {"numpy", "holorag"}


def absolute_imports(path: Path):
    """The top-level module of every absolute import in ``path``, including nested ones."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_numpy_and_the_standard_library():
    imported = {
        (str(path.relative_to(REPO)), name)
        for path in (REPO / "src" / "holorag").rglob("*.py")
        for name in absolute_imports(path)
    }
    assert ("src/holorag/masking.py", "numpy") in imported
    allowed = sys.stdlib_module_names | ALLOWED_OUTSIDE_STDLIB
    assert sorted(entry for entry in imported if entry[1] not in allowed) == []


def test_pyproject_depends_on_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in project["dependencies"]]
    assert names == ["numpy"]


def calls_by_function(path: Path):
    """(innermost enclosing function or "<module>", callee name, call node) of every
    call in ``path``.

    The callee is named by its bare name or, for ``x.attr(...)``, by ``attr``.
    """

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            yield function, name, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "<module>")


def test_one_generation_request_path():
    """`pipeline._generate` alone builds a GenerationRequest and calls ``.generate``."""
    found = sorted(
        (str(path.relative_to(REPO)), function, name)
        for path in (REPO / "src" / "holorag").rglob("*.py")
        for function, name, _ in calls_by_function(path)
        if name in ("GenerationRequest", "generate")
    )
    assert found == [
        ("src/holorag/pipeline.py", "_generate", "GenerationRequest"),
        ("src/holorag/pipeline.py", "_generate", "generate"),
    ]


def test_one_url_check():
    """`http._split_url` alone parses a URL: the base and proxy URLs share one check,
    and no request parses a URL."""
    found = sorted(
        (str(path.relative_to(REPO)), function)
        for path in (REPO / "src" / "holorag").rglob("*.py")
        for function, name, _ in calls_by_function(path)
        if name in ("urlsplit", "urlparse", "urlunsplit", "urlunparse")
    )
    assert found == [("src/holorag/backends/http.py", "_split_url")]


def test_thread_pools_are_built_in_two_places():
    """`evaluation._evaluate` builds the evaluation workers' pool, and
    `workers._start_pool` the one that the masked scan and the losses share,
    at import and after a fork."""
    found = sorted(
        (str(path.relative_to(REPO)), function)
        for path in (REPO / "src" / "holorag").rglob("*.py")
        for function, name, _ in calls_by_function(path)
        if name == "ThreadPoolExecutor"
    )
    assert found == [
        ("src/holorag/evaluation.py", "_evaluate"),
        ("src/holorag/workers.py", "_start_pool"),
    ]


def test_only_share_submits_to_the_shared_pool():
    """`workers.share` alone submits work to an executor, so the shared pool's threads
    run no other work (evaluation hands its own pool's work out by ``map``)."""
    found = [
        (str(path.relative_to(REPO)), function)
        for path in (REPO / "src" / "holorag").rglob("*.py")
        for function, name, _ in calls_by_function(path)
        if name == "submit"
    ]
    assert found == [("src/holorag/workers.py", "share")]


def test_only_workers_schedules_threads():
    """The modules whose work `workers.share` spreads import neither `threading` nor
    `concurrent`: they hand it a job and items, and it alone schedules them."""
    found = sorted(
        (name, module)
        for name in ("index.py", "losses.py", "masking.py")
        for module in absolute_imports(REPO / "src" / "holorag" / name)
        if module in ("threading", "concurrent")
    )
    assert found == []


def test_similarities_are_built_in_two_places():
    """A batch's cached `_sims`, through the lambda it hands to `losses._per_term`, and
    the finite-difference checker's perturbed losses (in its ``shifted``) alone call
    `losses._masked_sims`; a lambda's calls count as its enclosing function's."""
    found = sorted(
        (str(path.relative_to(REPO)), function)
        for path in (REPO / "src" / "holorag").rglob("*.py")
        for function, name, _ in calls_by_function(path)
        if name == "_masked_sims"
    )
    assert found == [("src/holorag/losses.py", "_sims"), ("src/holorag/losses.py", "shifted")]


def test_only_fresh_arrays_are_handed_over_uncopied():
    """``_owned``, which skips the copy of a `Pool` or `Batch`, is passed, as True, only by
    the functions that just made the arrays they hand over, and by `index._owned_pool`,
    to which the snapshot and corpus readers hand theirs: nothing else holds them."""
    found = sorted(
        (str(path.relative_to(REPO)), function, name, ast.unparse(keyword.value))
        for path in (REPO / "src" / "holorag").rglob("*.py")
        for function, name, call in calls_by_function(path)
        for keyword in call.keywords
        if keyword.arg == "_owned"
    )
    assert found == [
        ("src/holorag/index.py", "_owned_pool", "Pool", "True"),
        ("src/holorag/index.py", "ingest_corpus", "Pool", "True"),
        ("src/holorag/index.py", "merge_pools", "Pool", "True"),
        ("src/holorag/losses.py", "build_batch", "Batch", "True"),
    ]


def parsed(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def dataclass_decorators(path: Path):
    """(class name, decorator node) of every ``@dataclass`` or ``@dataclass(...)`` in ``path``."""
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if (getattr(target, "id", None) or getattr(target, "attr", None)) == "dataclass":
                    yield node.name, decorator


def test_every_dataclass_is_frozen():
    """A record is checked when it is built and never changed after, so every
    `@dataclass` under src/holorag passes ``frozen=True``."""
    thawed = sorted(
        (str(path.relative_to(REPO)), decorator.lineno, name)
        for path in (REPO / "src" / "holorag").rglob("*.py")
        for name, decorator in dataclass_decorators(path)
        if not any(
            keyword.arg == "frozen" and ast.unparse(keyword.value) == "True"
            for keyword in getattr(decorator, "keywords", [])
        )
    )
    assert thawed == []


def test_nothing_revalidates_a_config():
    """`RunConfig` checks itself when it is built, so src/ neither defines nor calls a
    ``validate``."""
    sources = sorted((REPO / "src" / "holorag").rglob("*.py"))
    defined = [
        (str(path.relative_to(REPO)), node.lineno)
        for path in sources
        for node in ast.walk(parsed(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "validate"
    ]
    called = [
        (str(path.relative_to(REPO)), function)
        for path in sources
        for function, name, _ in calls_by_function(path)
        if name == "validate"
    ]
    assert (defined, called) == ([], [])


def test_cli_sets_up_and_writes_in_one_place_each():
    """In cli.py, `_set_up` alone builds the backend and loads snapshots, for every
    snapshot command, and `_write_json` alone writes a file, for --trace and --report."""
    found = sorted(
        (function, name)
        for function, name, _ in calls_by_function(REPO / "src" / "holorag" / "cli.py")
        if name in ("_build_backend", "load_snapshot", "atomic_write")
    )
    assert found == [
        ("_set_up", "_build_backend"),
        ("_set_up", "load_snapshot"),
        ("_write_json", "atomic_write"),
    ]

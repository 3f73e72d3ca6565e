"""Consistency checks for the documentation site.

``mkdocs build --strict`` runs in CI (the ``docs`` job) and catches broken
nav entries and links; these tests enforce the *content* contracts locally,
without the docs toolchain installed:

* every file referenced by ``mkdocs.yml`` exists (and vice versa: every docs
  page is reachable from the nav);
* the "Experiments & CLI" page documents every registered experiment;
* the API pages cover every public ``repro.batch`` / ``repro.backend``
  symbol (via the mkdocstrings module directives whose ``__all__`` the site
  renders);
* the examples gallery documents every example script;
* internal relative links point at files that exist.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.experiments.registry import experiment_names

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"
MKDOCS_YML = REPO / "mkdocs.yml"


def nav_pages() -> list[str]:
    """Extract the page paths referenced by the mkdocs nav (regex, no yaml dep)."""
    text = MKDOCS_YML.read_text()
    nav = text[text.index("\nnav:") :]
    return re.findall(r":\s*([\w./-]+\.md)\s*$", nav, flags=re.MULTILINE)


def test_mkdocs_config_exists_and_is_strict_ready():
    text = MKDOCS_YML.read_text()
    assert "mkdocstrings" in text, "API reference requires the mkdocstrings plugin"
    assert "paths: [src]" in text, "mkdocstrings must resolve the src layout"
    assert "docstring_style: numpy" in text


def test_every_nav_entry_resolves_to_a_docs_file():
    pages = nav_pages()
    assert pages, "mkdocs.yml nav must reference at least one page"
    for page in pages:
        assert (DOCS / page).is_file(), f"nav references missing page {page}"


def test_every_docs_page_is_reachable_from_the_nav():
    pages = set(nav_pages())
    on_disk = {
        str(path.relative_to(DOCS)) for path in DOCS.rglob("*.md")
    }
    # (The converse — nav entries resolving to files — is checked above.)
    assert on_disk <= pages, (
        f"docs pages missing from nav: {sorted(on_disk - pages)}"
    )


def test_experiments_page_documents_every_registered_experiment():
    from repro.experiments.registry import _BUILTIN_MODULES, _REGISTRY

    text = (DOCS / "experiments.md").read_text()
    # Other test modules may register throwaway experiments in the process-wide
    # registry; the docs contract covers the built-in modules' experiments.
    experiment_names()  # force built-in registration
    builtin = {
        name
        for name, definition in _REGISTRY.items()
        if definition.build.__module__ in _BUILTIN_MODULES
    }
    assert builtin, "no built-in experiments registered"
    for name in sorted(builtin):
        assert f"`{name}`" in text, f"experiments.md does not document {name!r}"


def test_api_pages_cover_public_batch_and_backend_symbols():
    import repro.backend
    import repro.batch

    batch_page = (DOCS / "api" / "batch.md").read_text()
    backend_page = (DOCS / "api" / "backend.md").read_text()
    # The mkdocstrings directives render every __all__ member of the module.
    assert "::: repro.batch" in batch_page
    assert "::: repro.backend" in backend_page
    assert repro.batch.__all__, "repro.batch must declare its public API"
    assert repro.backend.__all__, "repro.backend must declare its public API"
    # Scenario kernels get their own directive so the padded/roster contracts
    # render with full signatures.
    assert "::: repro.batch.scenarios" in batch_page


def test_serving_api_page_covers_service_and_canonical_hashing():
    import repro.serving

    serving_page = (DOCS / "api" / "serving.md").read_text()
    assert "::: repro.serving" in serving_page
    # The cache-key machinery is part of the serving contract even though it
    # lives in utils — the serving API page renders it alongside.
    assert "::: repro.utils.canonical" in serving_page
    assert repro.serving.__all__, "repro.serving must declare its public API"


def test_serving_guide_documents_every_endpoint_and_cli_flag():
    text = (DOCS / "serving.md").read_text()
    for route in ("/solve", "/sweep", "/mechanism", "/coverage-times", "/healthz", "/stats"):
        assert f"`{route}`" in text, f"serving.md does not document {route}"
    for flag in ("--max-batch", "--max-wait-ms", "--cache-size",
                 "--max-pending", "--executor", "--workers"):
        assert flag in text, f"serving.md does not document {flag}"


def test_serving_guide_documents_scheduling_and_backpressure():
    text = (DOCS / "serving.md").read_text()
    # The continuous-batching discipline and its architecture diagram.
    assert "ontinuous batching" in text
    assert "mermaid" in text
    # Every executor mode of the off-loop execution layer.
    from repro.serving.executor import EXECUTOR_MODES

    for mode in EXECUTOR_MODES:
        assert f"`{mode}`" in text or f"**{mode}**" in text, (
            f"serving.md does not document executor mode {mode!r}"
        )
    # Admission control: the shed status and its retry hint.
    assert "503" in text
    assert "Retry-After" in text
    # The cross-call plan memo and its stats surface.
    assert "plan_memo" in text


def test_device_guide_documents_the_residency_contract():
    text = (DOCS / "device.md").read_text()
    # The transfer-accounting API and the gate it enforces.
    for symbol in ("track_transfers", "expected_transfer", "mid_kernel"):
        assert symbol in text, f"device.md does not document {symbol}"
    # Device selection surfaces: keyword, CLI flag and environment variable.
    from repro.backend import DEVICE_ENV_VAR

    assert "--device" in text
    assert DEVICE_ENV_VAR in text
    # The compiled stepping path and the benchmark artifact it is gated by.
    assert "compile=True" in text
    assert "torch.compile" in text
    assert "BENCH_device.json" in text
    assert "mermaid" in text, "device.md must include the architecture diagram"


def test_sweeps_guide_documents_the_fabric_contract():
    text = (DOCS / "sweeps.md").read_text()
    # Every executor strategy and the shared flags, and no retired ones.
    from repro.experiments import executor_names

    for name in executor_names():
        assert f"`{name}`" in text, f"sweeps.md does not document the {name!r} strategy"
    for flag in ("--executor", "--store", "--resume", "--batch"):
        assert flag in text, f"sweeps.md does not document {flag}"
    assert "repro-dispersal worker" not in text and "--bind" not in text
    # Store layout, resume semantics, and the benchmark workload timing it all.
    assert "cell_key" in text
    assert "FORMAT" in text
    assert "perfbench" in text and "`sweep` workload" in text
    assert "mermaid" in text, "sweeps.md must include the fabric diagram"


def test_coverage_times_guide_documents_the_exact_layer_contract():
    text = (DOCS / "coverage_times.md").read_text()
    # The exact kernel family, its estimator, and the scalar wrappers.
    for symbol in (
        "coverage_time_cdf_batch",
        "expected_coverage_time_batch",
        "partial_coverage_time_batch",
        "estimate_coverage_time_mc",
    ):
        assert symbol in text, f"coverage_times.md does not document {symbol}"
    assert "::: repro.batch.coverage_times" in text
    assert "::: repro.search.coverage_times" in text
    # The degenerate contract and the enumeration cap.
    assert "`inf`" in text, "the uncoverable-row contract must be documented"
    assert "DEFAULT_MAX_EXACT_SITES" in text
    # The statistical-validation story and the benchmark timing the layer.
    assert "stat_helpers" in text
    assert "`sweep`" in text and "BENCHMARK.json" in text


def test_examples_gallery_documents_every_example_script():
    text = (DOCS / "examples.md").read_text()
    for script in sorted((REPO / "examples").glob("*.py")):
        assert f"`{script.name}`" in text, (
            f"examples.md does not document {script.name}"
        )


@pytest.mark.parametrize("page", sorted(DOCS.rglob("*.md"), key=str))
def test_internal_relative_links_resolve(page: Path):
    text = page.read_text()
    for target in re.findall(r"\]\(([^)#\s]+\.md)(?:#[\w-]+)?\)", text):
        if target.startswith(("http://", "https://")):
            continue
        resolved = (page.parent / target).resolve()
        assert resolved.is_file(), f"{page.name} links to missing page {target}"


def test_public_symbols_have_docstrings():
    """The docstring-audit guard: every public symbol the site renders is documented."""
    import repro
    import repro.backend
    import repro.batch
    import repro.experiments
    import repro.serving

    for module in (repro, repro.batch, repro.backend, repro.experiments, repro.serving):
        assert (module.__doc__ or "").strip(), f"{module.__name__} needs a module docstring"
        for name in module.__all__:
            if name.startswith("__"):
                continue
            obj = getattr(module, name)
            if isinstance(obj, (str, int, float, tuple, dict)):
                continue
            assert (getattr(obj, "__doc__", None) or "").strip(), (
                f"{module.__name__}.{name} needs a docstring"
            )

"""Documentation health: links resolve, docstring cross-references
resolve, every example script is smoke-tested, and the docs tree the
README promises actually exists."""

import importlib.util
import os
import re

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def load_tool(name):
    path = os.path.join(ROOT, "tools", name)
    spec = importlib.util.spec_from_file_location(name[:-3], path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_markdown_links_resolve(capsys):
    checker = load_tool("check_links.py")
    rc = checker.main(["check_links.py", ROOT])
    out = capsys.readouterr().out
    assert rc == 0, out


def test_docstring_references_resolve(capsys):
    checker = load_tool("check_api_docs.py")
    rc = checker.main(["check_api_docs.py", os.path.join(ROOT, "src")])
    out = capsys.readouterr().out
    assert rc == 0, out


def test_docs_tree_exists():
    for page in ("architecture.md", "cli.md", "harness.md",
                 "observability.md", "prediction.md", "scenarios.md",
                 "serving.md"):
        path = os.path.join(ROOT, "docs", page)
        assert os.path.exists(path), f"docs/{page} is missing"
        assert open(path).read().startswith("#")


def test_every_example_has_a_smoke_test():
    """Examples rot when nothing runs them — every script in examples/
    must be exercised by tests/test_examples_smoke.py."""
    examples = sorted(
        f for f in os.listdir(os.path.join(ROOT, "examples"))
        if f.endswith(".py")
    )
    assert examples, "examples/ unexpectedly empty"
    smoke = open(os.path.join(ROOT, "tests", "test_examples_smoke.py")).read()
    missing = [e for e in examples if e not in smoke]
    assert not missing, (
        f"examples without a smoke test: {missing} — add them to "
        "tests/test_examples_smoke.py"
    )


def test_cli_doc_covers_every_subcommand():
    """docs/cli.md must document each `python -m repro` subcommand."""
    from repro.cli import build_parser

    parser = build_parser()
    subcommands = []
    for action in parser._actions:
        if hasattr(action, "choices") and action.choices:
            subcommands = list(action.choices)
    assert subcommands, "no subcommands found on the parser"
    doc = open(os.path.join(ROOT, "docs", "cli.md")).read()
    missing = [c for c in subcommands if f"repro {c}" not in doc]
    assert not missing, f"subcommands undocumented in docs/cli.md: {missing}"


def test_cli_doc_covers_scenario_flags():
    """The scenario surface must stay documented: the ``--scenario``
    flag on every consumer command, every ``repro scenarios`` action,
    and the serve request field."""
    doc = open(os.path.join(ROOT, "docs", "cli.md")).read()
    for cmd in ("sweep", "trace", "predict"):
        pattern = rf"repro {cmd}[^\n]*--scenario"
        assert re.search(pattern, doc), (
            f"docs/cli.md does not show --scenario on `repro {cmd}`"
        )
    for action in ("list", "show", "validate", "frequencies"):
        assert re.search(rf"scenarios\s+{action}", doc), (
            f"docs/cli.md does not document `repro scenarios {action}`"
        )
    assert '"scenario"' in doc, (
        "docs/cli.md does not document the serve request's scenario field"
    )


def test_cli_doc_covers_every_validation_lane():
    """docs/cli.md must name every registered ``repro validate --lane``."""
    from repro.validate.lanes import LANES

    doc = open(os.path.join(ROOT, "docs", "cli.md")).read()
    missing = [name for name in LANES if f"`{name}`" not in doc]
    assert not missing, f"lanes undocumented in docs/cli.md: {missing}"


def test_scenarios_doc_pins_the_asserted_numbers():
    """docs/scenarios.md must cite the exact sweep optima that
    tests/test_dvfs_energy.py asserts — drift either place and this
    fires."""
    doc = open(os.path.join(ROOT, "docs", "scenarios.md")).read()
    for number in ("1.2", "3.2", "1.45", "2.20"):
        assert number in doc, f"docs/scenarios.md lost the {number} GHz pin"
    for phrase in ("race-to-idle", "clock-down", "weather", "soma"):
        assert phrase in doc, f"docs/scenarios.md does not discuss {phrase}"


def test_scenarios_doc_covers_every_schema_field():
    """Every accepted scenario key must appear in the schema table."""
    from repro.scenarios.spec import Scenario

    doc = open(os.path.join(ROOT, "docs", "scenarios.md")).read()
    for field in Scenario._ALLOWED:
        assert f"`{field}`" in doc, (
            f"docs/scenarios.md schema table is missing `{field}`"
        )


def test_readme_mentions_docs():
    readme = open(os.path.join(ROOT, "README.md")).read()
    for page in ("docs/architecture.md", "docs/cli.md", "docs/harness.md",
                 "docs/observability.md", "docs/prediction.md",
                 "docs/scenarios.md", "docs/serving.md"):
        assert page in readme, f"README does not link {page}"


def test_classification_thresholds_documented():
    """docs/observability.md pins the exact NetworkSpec-derived
    thresholds; keep the prose honest if the spec moves."""
    from repro.machine.network import NetworkSpec
    from repro.obs.timeline import recv_wait_floor

    net = NetworkSpec()
    doc = open(os.path.join(ROOT, "docs", "observability.md")).read()
    floor_us = recv_wait_floor(net) * 1e6
    assert f"{floor_us:.1f}" in doc  # "4.1 µs" appears in the rules
    assert re.search(r"eager_threshold.*64\s*KiB", doc)

"""The package surface: every public name resolves, and lazily.

``import cmoore`` loads no submodule; a name or submodule is imported on
first use.  A CLI command loads only the modules its handler runs.
"""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmoore

SRC = Path(__file__).resolve().parents[1] / "src"

# The public names of the package, by the module that defined them when the
# package still imported every submodule eagerly.
PUBLIC = {
    "analysis": """FiniteDistribution OccupancyVector SyncResult approximate_distribution
        monte_carlo_occupancy path_count_occupancy signal_occupancy stationary_distribution
        synchronizing_word""",
    "cluster": """BisimulationResult ClusterNode ClusterState CycleLength ScaleSystem
        SimulationReport TemporalClass TickResult bisimilar canonical_machine classify
        cycle_length digit_count initial_state leading_digits max_prime_power_sizes
        node_from_json node_to_json product simulate tick unfold validate_cluster
        wheel_cluster_cycle""",
    "errors": """AmbiguousChainError BudgetError ContradictionError DomainError HaltedError
        InfeasibleError InputDomainError UnassignedWindowError UnsupportedStructureError""",
    "fluents": "FluentStore TimePoint Truth contains evaluate evaluate_schema load_store",
    "lingua": """ActivationNetwork LexEntry Lexicon ParseItem ParseResult Pattern PatternSet
        Phase TenseMap demo_lexicon demo_patterns disambiguate grief_demo_network inject
        load_grammar load_network parse step_network tense_locate""",
    "machine": """Automaton Constraints FirstChooser RandomChooser RunTrace Violation
        from_json run step to_dot to_json transition_matrix validate""",
    "memory": """ByteCell StepOutput Tape apply_symbol build_t1 corrupt idle majority_read
        read run_script transition_table_size""",
    "menagerie": """aktionsart annotate_outputs build chain gallery schema state_names
        synapse wheel wire""",
}
HOME = {name: module for module, names in PUBLIC.items() for name in names.split()}


def test_the_public_names_are_listed():
    assert len(HOME) == 102
    assert set(HOME) <= set(cmoore.__all__)
    assert set(HOME) | set(PUBLIC) <= set(dir(cmoore))


def test_each_name_is_the_object_of_its_module():
    wrong = [
        name
        for name, module in HOME.items()
        if getattr(cmoore, name) is not getattr(importlib.import_module(f"cmoore.{module}"), name)
    ]
    assert wrong == []


def test_star_import_binds_every_name_and_submodule():
    namespace = {}
    exec("from cmoore import *", namespace)
    for name in HOME:
        assert namespace[name] is getattr(cmoore, name)
    for module in PUBLIC:
        assert namespace[module] is importlib.import_module(f"cmoore.{module}")


# Names that moved out of ``cmoore.cluster``, by their present home.
REHOMED = {
    "temporal": "BisimulationResult TemporalClass bisimilar canonical_machine classify",
    "errors": "digit_count leading_digits",
    "timescales": "ScaleSystem",
}


@pytest.mark.parametrize(
    "home,name", [(home, name) for home, names in REHOMED.items() for name in names.split()]
)
def test_a_rehomed_name_is_one_object(home, name):
    from cmoore import cluster

    value = getattr(importlib.import_module(f"cmoore.{home}"), name)
    assert getattr(cmoore, name) is value
    assert getattr(cluster, name) is value
    if name == "ScaleSystem":
        from cmoore import fluents

        assert fluents.ScaleSystem is value


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cmoore.no_such_name
    with pytest.raises(ImportError):
        exec("from cmoore import no_such_name", {})


def loaded_after(code):
    """The ``cmoore`` submodules a fresh interpreter holds after ``code``."""
    probe = code + '\nprint(" ".join(m for m in sys.modules if m.startswith("cmoore.")))'
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return {name.removeprefix("cmoore.") for name in done.stdout.split()}


def loaded_by_command(*argv):
    return loaded_after(
        "import contextlib, io, runpy, sys\n"
        f"sys.argv = ['cmoore', *{list(argv)!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        "    runpy.run_module('cmoore.cli', run_name='__main__')\n"
    )


def test_a_bare_import_loads_no_submodule():
    assert loaded_after("import sys, cmoore") == set()


def test_submodules_resolve_after_a_bare_import():
    assert loaded_after("import sys, cmoore\ncmoore.cluster, cmoore.analysis") >= {
        "cluster", "analysis"
    }
    for module in PUBLIC:
        assert getattr(cmoore, module) is importlib.import_module(f"cmoore.{module}")


@pytest.mark.parametrize(
    "argv,absent",
    [
        (["tape", "--symbols", "nu,alpha"], {"cluster", "analysis", "lingua", "fluents"}),
        (["occupancy", "--machine", "wheel:3"], {"cluster", "lingua", "memory"}),
        (["simulate", "--machine", "wheel:2", "--inner", "a=wheel:3", "--ticks", "9"],
         {"analysis", "lingua", "memory"}),
        (["validate", "--machine", "wheel:3"],
         {"cluster", "analysis", "lingua", "fluents", "memory"}),
        (["parse", "--sentence", "Eleanor broke the record"], {"cluster", "analysis"}),
        (["--help"], {"cluster", "analysis", "lingua", "fluents", "memory"}),
        (["bisim", "--machine", "wheel:4", "--other", "wheel:8"],
         {"cluster", "analysis", "lingua", "fluents", "memory"}),
        (["classify", "--machine", "chain:5"],
         {"cluster", "analysis", "lingua", "fluents", "memory"}),
        (["occupancy", "--machine", "wheel:10000", "--mode", "path-count", "--steps", "5000"],
         {"cluster"}),
    ],
    ids=["tape", "occupancy", "simulate", "validate", "parse", "help", "bisim",
         "classify-machine", "budget-line"],
)
def test_a_command_loads_only_its_modules(argv, absent):
    loaded = loaded_by_command(*argv)
    assert loaded and not loaded & absent


def test_classify_compiles_a_cluster_through_load_cluster():
    loaded = loaded_after(
        "import contextlib, io, runpy, sys\n"
        "sys.argv = ['cmoore', 'classify', '--machine', 'wheel:2', '--inner', 'a=wheel:3']\n"
        "text = io.StringIO()\n"
        "with contextlib.redirect_stdout(text), contextlib.suppress(SystemExit):\n"
        "    runpy.run_module('cmoore.cli', run_name='__main__')\n"
        "assert text.getvalue() == 'C(6)\\n', text.getvalue()\n"
    )
    assert {"temporal", "cluster"} <= loaded


def test_fluent_loads_no_cluster(tmp_path):
    store = tmp_path / "store.json"
    store.write_text('{"fluents": {"rain": {"domain": [0, 10], "true": [[0, 5]]}}}')
    loaded = loaded_by_command("fluent", "--store", str(store), "--name", "rain", "--at", "1.0")
    assert "fluents" in loaded and "cluster" not in loaded

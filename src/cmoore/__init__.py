"""Clustered Moore automata: machines that nest across timescales.

The package covers the canonical machine menagerie (wheels, chains, the
abstract synapse, wires, aspect shapes, schemas), occupancy and stationary
analysis, multi-timescale clustered simulation, temporal-structure
classification and output bisimulation, decaying tape memory, fluent
evaluation under universal / existential / preponderance semantics, and a
small spreading-activation island parser.  ``cmoore.cli`` exposes all of it
on the command line.

``import cmoore`` loads no submodule: each public name, and each submodule,
is imported on first use (PEP 562), so a caller pays only for what it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "analysis": """FiniteDistribution OccupancyVector SyncResult approximate_distribution
        monte_carlo_occupancy path_count_occupancy signal_occupancy stationary_distribution
        synchronizing_word""",
    "cluster": """ClusterNode ClusterState CycleLength SimulationReport TickResult cycle_length
        initial_state max_prime_power_sizes node_from_json node_to_json product simulate tick
        unfold validate_cluster wheel_cluster_cycle""",
    "errors": """AmbiguousChainError BudgetError ContradictionError DomainError HaltedError
        InfeasibleError InputDomainError UnassignedWindowError UnsupportedStructureError
        digit_count leading_digits""",
    "fluents": "FluentStore TimePoint Truth contains evaluate evaluate_schema load_store",
    "lingua": """ActivationNetwork LexEntry Lexicon ParseItem ParseResult Pattern PatternSet Phase
        TenseMap demo_lexicon demo_patterns disambiguate grief_demo_network inject load_grammar
        load_network parse step_network tense_locate""",
    "machine": """Automaton Constraints FirstChooser RandomChooser RunTrace Violation from_json
        run step to_dot to_json transition_matrix validate""",
    "memory": """ByteCell StepOutput Tape apply_symbol build_t1 corrupt idle majority_read read
        run_script transition_table_size""",
    "menagerie": """aktionsart annotate_outputs build chain gallery schema state_names synapse
        wheel wire""",
    "temporal": "BisimulationResult TemporalClass bisimilar canonical_machine classify",
    "timescales": "ScaleSystem",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_HOME, *_EXPORTS]


def __getattr__(name):
    home = _HOME.get(name, name)
    if home not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{home}")
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

"""Clustered Moore automata: machines that nest across timescales.

The package covers the canonical machine menagerie (wheels, chains, the
abstract synapse, wires, aspect shapes, schemas), occupancy and stationary
analysis, multi-timescale clustered simulation with temporal-structure
classification, decaying tape memory, fluent evaluation under universal /
existential / preponderance semantics, and a small spreading-activation
island parser.  ``cmoore.cli`` exposes all of it on the command line.
"""

from .analysis import (
    FiniteDistribution,
    OccupancyVector,
    SyncResult,
    approximate_distribution,
    monte_carlo_occupancy,
    path_count_occupancy,
    signal_occupancy,
    stationary_distribution,
    synchronizing_word,
)
from .cluster import (
    BisimulationResult,
    ClusterNode,
    ClusterState,
    CycleLength,
    ScaleSystem,
    SimulationReport,
    TemporalClass,
    TickResult,
    bisimilar,
    canonical_machine,
    classify,
    cycle_length,
    digit_count,
    initial_state,
    leading_digits,
    max_prime_power_sizes,
    node_from_json,
    node_to_json,
    product,
    simulate,
    tick,
    unfold,
    validate_cluster,
    wheel_cluster_cycle,
)
from .errors import (
    AmbiguousChainError,
    BudgetError,
    ContradictionError,
    DomainError,
    HaltedError,
    InfeasibleError,
    InputDomainError,
    UnassignedWindowError,
    UnsupportedStructureError,
)
from .fluents import (
    FluentStore,
    TimePoint,
    Truth,
    contains,
    evaluate,
    evaluate_schema,
    load_store,
)
from .lingua import (
    ActivationNetwork,
    LexEntry,
    Lexicon,
    ParseItem,
    ParseResult,
    Pattern,
    PatternSet,
    Phase,
    TenseMap,
    demo_lexicon,
    demo_patterns,
    disambiguate,
    grief_demo_network,
    inject,
    load_grammar,
    load_network,
    parse,
    step_network,
    tense_locate,
)
from .machine import (
    Automaton,
    Constraints,
    FirstChooser,
    RandomChooser,
    RunTrace,
    Violation,
    from_json,
    run,
    step,
    to_dot,
    to_json,
    transition_matrix,
    validate,
)
from .memory import (
    ByteCell,
    StepOutput,
    Tape,
    apply_symbol,
    build_t1,
    corrupt,
    idle,
    majority_read,
    read,
    run_script,
    transition_table_size,
)
from .menagerie import (
    aktionsart,
    annotate_outputs,
    build,
    chain,
    gallery,
    schema,
    state_names,
    synapse,
    wheel,
    wire,
)

__version__ = "0.1.0"

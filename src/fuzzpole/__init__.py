"""Hierarchical fuzzy control toolkit with a cart-pole balancing benchmark.

The pieces: a min/max rule-inference core with center-of-area
defuzzification (:mod:`fuzzpole.fuzzy`), a textual rule language and the
built-in 13-rule knowledge base (:mod:`fuzzpole.rulelang`), goal-hierarchy
composition and auditing (:mod:`fuzzpole.hierarchy`), the nonlinear cart-pole
plant (:mod:`fuzzpole.plant`), a pole-placement state-feedback baseline
(:mod:`fuzzpole.sfc`), and the simulation/metrics harness with its CLI
(:mod:`fuzzpole.harness`, ``fuzzpole``).

Closed-loop runs go through one numpy simulation loop shared by both
controllers (:mod:`fuzzpole.kernels`).
"""

from .fuzzy import (
    KnowledgeBase,
    LinguisticVariable,
    MembershipFunction,
    NoRuleFired,
    OutputUniverse,
    Precondition,
    Rule,
    aggregate_output,
    defuzzify_coa,
    fc_output,
    rule_activation,
    shoulder_down,
    shoulder_up,
    triangle,
)
from .harness import (
    FuzzyController,
    MetricsReport,
    Scenario,
    SFCController,
    Trajectory,
    compare,
    compute_metrics,
    default_scenario,
    emit_trajectory,
    load_scenario,
    run,
)
from .hierarchy import (
    Concentration,
    GoalSpec,
    Narrowed,
    audit_hierarchy,
    cart_pole_goals,
    compose_hierarchical,
    derive_very,
)
from .plant import (
    DisturbanceEvent,
    PlantParams,
    PlantState,
    POLE_PRESETS,
    apply_event,
    derivatives,
    pole_params,
    step,
)
from .rulelang import (
    Diagnostic,
    builtin_pole_kb,
    parse_knowledge_base,
    serialize_kb,
    validate_kb,
)
from .sfc import GainVector, LinearModel, design_gains, linearize, sfc_output

__version__ = "0.1.0"

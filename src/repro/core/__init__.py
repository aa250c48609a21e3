"""The paper's primary contribution: exact minimum-cost synthesis.

* :mod:`repro.core.circuit` -- gate cascades with three semantics.
* :mod:`repro.core.cost` -- quantum cost models.
* :mod:`repro.core.search` -- the reasonable-product layered closure.
* :mod:`repro.core.kernel` -- the NumPy-vectorized expansion engine
  and its checkpoint directory.
* :mod:`repro.core.dedup` -- disk-backed sharded dedup table.
* :mod:`repro.core.store` -- persistent closure store (precompute/serve).
* :mod:`repro.core.plan` -- resource planner for precompute runs.
* :mod:`repro.core.batch` -- batch synthesis against one shared closure.
* :mod:`repro.core.fmcf` -- Finding_Minimum_Cost_Circuits (Table 2).
* :mod:`repro.core.mce` -- Minimum_Cost_Expressing (Figures 4-9).
* :mod:`repro.core.theorems` -- machine checks of Theorems 1-3.
* :mod:`repro.core.universality` -- the G[4] / Peres-family analysis.
* :mod:`repro.core.probabilistic` -- Section 4 probabilistic synthesis.
"""

from repro.core.circuit import Circuit
from repro.core.cost import CostModel, UNIT_COST
from repro.core.search import CascadeSearch, SearchArrays, SearchStats
from repro.core.dedup import ShardedDedupTable, parse_budget
from repro.core.kernel import RelationFilter, VectorEngine
from repro.core.store import (
    StoreHeader,
    cost_model_fingerprint,
    dump_search,
    library_fingerprint,
    load_search,
    loads_search,
    migrate_store,
    open_store,
    read_header,
    resolve_codec,
    save_search,
    section_cache_stats,
    verify_store,
)
from repro.core.plan import ResourcePlan, plan_resources
from repro.core.batch import BatchSynthesizer, build_remainder_index
from repro.core.fmcf import CostTable, find_minimum_cost_circuits
from repro.core.mce import (
    DEFAULT_COST_BOUND,
    SynthesisResult,
    certify,
    express,
    express_all,
    minimal_cost,
    normalize_target,
)
from repro.core.probabilistic import (
    ProbabilisticSpec,
    ProbabilisticSynthesisResult,
    express_probabilistic,
)
from repro.core.theorems import (
    not_layer_circuit,
    stabilizer_group,
    paper_generator_group,
    universality_group,
    verify_theorem2,
)
from repro.core.universality import (
    G4Analysis,
    analyze_g4,
    is_universal,
    match_paper_representatives,
    wire_relabeling_orbit,
)
from repro.core.identities import (
    GatePairIdentity,
    commuting_pairs,
    commuting_feynman_pairs,
    inverse_pairs,
    cnot_emulations,
    verify_adjoint_closure,
    identity_catalog,
)
from repro.core.schedule import (
    Schedule,
    asap_schedule,
    depth,
    is_fully_sequential,
    min_depth_implementation,
)
from repro.core.canonical import (
    ImplementationFamilies,
    classify_implementations,
    xor_wires,
)

__all__ = [
    "Circuit",
    "CostModel",
    "UNIT_COST",
    "CascadeSearch",
    "SearchArrays",
    "SearchStats",
    "ShardedDedupTable",
    "parse_budget",
    "RelationFilter",
    "VectorEngine",
    "StoreHeader",
    "cost_model_fingerprint",
    "dump_search",
    "library_fingerprint",
    "load_search",
    "loads_search",
    "migrate_store",
    "open_store",
    "read_header",
    "resolve_codec",
    "save_search",
    "section_cache_stats",
    "verify_store",
    "ResourcePlan",
    "plan_resources",
    "BatchSynthesizer",
    "build_remainder_index",
    "CostTable",
    "find_minimum_cost_circuits",
    "DEFAULT_COST_BOUND",
    "SynthesisResult",
    "certify",
    "express",
    "express_all",
    "minimal_cost",
    "normalize_target",
    "ProbabilisticSpec",
    "ProbabilisticSynthesisResult",
    "express_probabilistic",
    "not_layer_circuit",
    "stabilizer_group",
    "paper_generator_group",
    "universality_group",
    "verify_theorem2",
    "G4Analysis",
    "analyze_g4",
    "is_universal",
    "match_paper_representatives",
    "wire_relabeling_orbit",
    "GatePairIdentity",
    "commuting_pairs",
    "commuting_feynman_pairs",
    "inverse_pairs",
    "cnot_emulations",
    "verify_adjoint_closure",
    "identity_catalog",
    "Schedule",
    "asap_schedule",
    "depth",
    "is_fully_sequential",
    "min_depth_implementation",
    "ImplementationFamilies",
    "classify_implementations",
    "xor_wires",
]

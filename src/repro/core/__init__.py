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

from importlib import import_module as _import_module

#: Exported name -> defining module, imported on first use (PEP 562):
#: a replica serving stores needs the store, batch index and MCE
#: modules, never the paper-analysis ones (theorems, universality, ...).
_EXPORTS = {
    "Circuit": "repro.core.circuit",
    "CostModel": "repro.core.cost",
    "UNIT_COST": "repro.core.cost",
    "CascadeSearch": "repro.core.search",
    "SearchArrays": "repro.core.search",
    "SearchStats": "repro.core.search",
    "ShardedDedupTable": "repro.core.dedup",
    "parse_budget": "repro.core.dedup",
    "RelationFilter": "repro.core.kernel",
    "VectorEngine": "repro.core.kernel",
    "StoreHeader": "repro.core.store",
    "cost_model_fingerprint": "repro.core.store",
    "dump_search": "repro.core.store",
    "library_fingerprint": "repro.core.store",
    "load_search": "repro.core.store",
    "loads_search": "repro.core.store",
    "migrate_store": "repro.core.store",
    "open_store": "repro.core.store",
    "read_header": "repro.core.store",
    "resolve_codec": "repro.core.store",
    "save_search": "repro.core.store",
    "section_cache_stats": "repro.core.store",
    "verify_store": "repro.core.store",
    "ResourcePlan": "repro.core.plan",
    "plan_resources": "repro.core.plan",
    "BatchSynthesizer": "repro.core.batch",
    "build_remainder_index": "repro.core.fmcf",
    "CostTable": "repro.core.fmcf",
    "find_minimum_cost_circuits": "repro.core.fmcf",
    "DEFAULT_COST_BOUND": "repro.core.mce",
    "SynthesisResult": "repro.core.mce",
    "certify": "repro.core.mce",
    "express": "repro.core.mce",
    "express_all": "repro.core.mce",
    "minimal_cost": "repro.core.mce",
    "normalize_target": "repro.core.mce",
    "ProbabilisticSpec": "repro.core.probabilistic",
    "ProbabilisticSynthesisResult": "repro.core.probabilistic",
    "express_probabilistic": "repro.core.probabilistic",
    "not_layer_circuit": "repro.core.theorems",
    "stabilizer_group": "repro.core.theorems",
    "paper_generator_group": "repro.core.theorems",
    "universality_group": "repro.core.theorems",
    "verify_theorem2": "repro.core.theorems",
    "G4Analysis": "repro.core.universality",
    "analyze_g4": "repro.core.universality",
    "is_universal": "repro.core.universality",
    "match_paper_representatives": "repro.core.universality",
    "wire_relabeling_orbit": "repro.core.universality",
    "GatePairIdentity": "repro.core.identities",
    "commuting_pairs": "repro.core.identities",
    "commuting_feynman_pairs": "repro.core.identities",
    "inverse_pairs": "repro.core.identities",
    "cnot_emulations": "repro.core.identities",
    "verify_adjoint_closure": "repro.core.identities",
    "identity_catalog": "repro.core.identities",
    "Schedule": "repro.core.schedule",
    "asap_schedule": "repro.core.schedule",
    "depth": "repro.core.schedule",
    "is_fully_sequential": "repro.core.schedule",
    "min_depth_implementation": "repro.core.schedule",
    "ImplementationFamilies": "repro.core.canonical",
    "classify_implementations": "repro.core.canonical",
    "xor_wires": "repro.core.canonical",
}


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(_import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = list(_EXPORTS)

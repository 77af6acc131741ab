"""Exact sumset, subsequence-sum and setpartition computations in finite
abelian groups, with certificate checkers and exhaustive audit search."""

__version__ = "0.1.0"


def __getattr__(attr: str):
    """The public API, loaded whole on first use (PEP 562) so the CLI loads less."""
    from .groups import (
        GroupError,
        GroupSpec,
        GroupSubset,
        QuotientStructure,
        Subgroup,
        abelian_groups_of_order,
        affine_span,
        enumerate_subgroups,
        iterated_sumset,
        make_group,
        parse_element,
        parse_group,
        quotient_cached,
        representation_min,
        stabilizer,
        subgroup_generated,
        sumset,
    )
    from .sequences import (
        GSequence,
        SequenceError,
        SubsumProfile,
        build_s_star,
        davenport_bruteforce,
        nterm_subsums,
        parse_sequence,
        push_forward,
        subsum_profile,
        subsum_table,
    )
    from .setpartitions import (
        Certificate,
        HypothesesUnmetError,
        InternalError,
        PartitionError,
        SetPartition,
        hypothesis_check,
        lemma31_complete,
        main_pipeline,
        main_verify,
        partition_solve,
        partition_verify,
    )
    from .verifiers import (
        CheckError,
        CheckReport,
        check_cor1,
        check_cor2,
        check_lemma_extra,
        check_subsum_kneser,
    )
    from .search import (
        AuditConfig,
        AuditReport,
        ExampleInstance,
        HuntReport,
        SearchError,
        clause_iib_fails,
        gen_example,
        hunt_unique_expression,
        run_audit,
    )
    api = {k: v for k, v in locals().items() if k != "attr"}
    globals().update(api)
    if attr in api:
        return api[attr]
    raise AttributeError(f"module {__name__!r} has no attribute {attr!r}")

//! Differential query-equivalence oracle.
//!
//! Every randomly generated query runs through both the naive plan and
//! the constraint-rewritten plan over data that provably satisfies the
//! constraint set the rewriter saw (the workload builds its rows through
//! an *enforcing* database). Both executions must produce byte-identical
//! stable serializations — any divergence is an unsound rewrite.
//!
//! The vendored proptest shim cannot shrink, so failures are minimized
//! by `cfinder_minidb::minimize` before being reported.

use cfinder_minidb::rewrite::plan_with_constraints;
use cfinder_minidb::{differential_check, minimize, Workload, WorkloadProfile};
use proptest::prelude::*;

/// Runs the oracle for one seed; on failure, reports the minimized
/// workload alongside the (re-derived) divergence detail.
fn check_seed(seed: u64, profile: WorkloadProfile) -> Result<(), String> {
    let w = Workload::generate(seed, profile);
    match differential_check(&w) {
        Ok(()) => Ok(()),
        Err(first) => {
            let small = minimize(&w, |c| differential_check(c).is_err());
            let detail = differential_check(&small).err().unwrap_or(first);
            Err(format!(
                "seed {seed} ({profile:?}) diverged; minimized workload:\n{}\nfailure:\n{detail}",
                small.describe()
            ))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conforming_workloads_agree(seed in 0u64..1_000_000) {
        let res = check_seed(seed, WorkloadProfile::Conforming);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }

    #[test]
    fn adversarial_null_workloads_agree(seed in 0u64..1_000_000) {
        let res = check_seed(seed, WorkloadProfile::AdversarialNulls);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }
}

/// A fixed-seed sweep independent of the proptest config, so the floor
/// of oracle coverage is pinned even if case counts change.
#[test]
fn fixed_seed_sweep_both_profiles() {
    for seed in 0..40u64 {
        for profile in [WorkloadProfile::Conforming, WorkloadProfile::AdversarialNulls] {
            if let Err(msg) = check_seed(seed, profile) {
                panic!("{msg}");
            }
        }
    }
}

/// The generator must actually exercise the rewrite catalog: across a
/// deterministic sweep, every rewrite rule fires at least once (so the
/// oracle's "no divergence" verdict covers every rule, not just the easy
/// ones).
#[test]
fn sweep_exercises_every_rewrite_rule() {
    let mut fired: std::collections::BTreeSet<&'static str> = std::collections::BTreeSet::new();
    for seed in 0..300u64 {
        for profile in [WorkloadProfile::Conforming, WorkloadProfile::AdversarialNulls] {
            let w = Workload::generate(seed, profile);
            let view = w.rewriter_view();
            for q in &w.queries {
                let (_, rewrites) = plan_with_constraints(q, &view);
                fired.extend(rewrites.iter().map(|r| r.rule()));
            }
        }
    }
    for rule in [
        "drop_distinct",
        "point_lookup",
        "drop_is_not_null",
        "impossible_is_null",
        "eliminate_join",
        "join_to_not_null_filter",
        "contradiction_prune",
    ] {
        assert!(
            fired.contains(rule),
            "rewrite rule `{rule}` never fired across the sweep; fired: {fired:?}"
        );
    }
}

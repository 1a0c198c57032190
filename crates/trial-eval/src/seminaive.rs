//! Semi-naive (delta) evaluation of Kleene closures.
//!
//! The naive fixpoint of Procedure 2 re-joins the *entire* accumulated
//! relation with the base relation in every round. Because triple joins
//! distribute over union in each argument, it suffices to join only the
//! triples discovered in the previous round (the *delta*) — the standard
//! semi-naive optimisation from Datalog evaluation, which the paper's
//! Section 7 explicitly asks about ("whether commercial RDBMSs can scalably
//! implement the type of recursion we require").
//!
//! On top of delta iteration, the base relation's side of the join is
//! invariant across rounds, so its hash table is built **once** before the
//! loop and probed by every delta (left closures are normalised to the same
//! orientation through the mirroring identity). A condition without a cross
//! equality has no key to hash on and runs each round as a nested loop.
//!
//! With [`EvalOptions::threads`]` > 1` each round's delta is carved into
//! morsels probed concurrently against the shared read-only [`JoinTable`]
//! (the fixpoint's natural synchronisation point: rounds are inherently
//! sequential, the join inside a round is embarrassingly parallel). Morsel
//! outputs concatenate in delta order, so the per-round `fresh` sets — and
//! therefore the round count and the result — are identical to the
//! single-threaded run.

use crate::compile::{used_positions, CompiledConditions};
use crate::engine::{EvalOptions, EvalStats};
use crate::ops::{self, JoinTable};
use trial_core::{Conditions, Error, OutputSpec, Result, StarDirection, TripleSet, Triplestore};

/// Computes `(base ✶)^*` (right) or `(✶ base)^*` (left) by delta iteration.
///
/// Each round joins only the previously-new triples against the base
/// relation, unions the genuinely new results into the accumulator and stops
/// when a round produces nothing new.
pub fn semi_naive_star(
    base: &TripleSet,
    output: &OutputSpec,
    cond: &Conditions,
    direction: StarDirection,
    store: &Triplestore,
    options: &EvalOptions,
    stats: &mut EvalStats,
) -> Result<TripleSet> {
    // Normalise the orientation so the delta is always the probe (left) side
    // and the invariant base is always the build (right) side:
    //   right closure:  acc ✶ base  — already in that shape;
    //   left closure:   base ✶ acc  =  acc ✶^{m(out)}_{m(cond)} base.
    let (output, cond) = match direction {
        StarDirection::Right => (*output, cond.clone()),
        StarDirection::Left => (output.mirrored(), cond.mirrored()),
    };
    let compiled = CompiledConditions::compile(&cond, store);
    let keys = compiled.cross_equalities();
    let [_, base_used] = used_positions(&output, &compiled);
    let cancel = &options.cancel;
    let degree = options.degree(base.len());
    let table =
        (!keys.is_empty()).then(|| JoinTable::build(base, &keys, base_used, degree, cancel, stats));
    let mut acc = base.clone();
    let mut delta = base.clone();
    let mut rounds: u64 = 0;
    while !delta.is_empty() {
        // Fixpoint-round checkpoint: a cancelled or expired token stops the
        // iteration between rounds with the structured error, the same
        // boundary the round limit is enforced at.
        options.cancel.check()?;
        if rounds >= options.max_fixpoint_rounds {
            return Err(Error::LimitExceeded(format!(
                "Kleene star exceeded {} fixpoint rounds",
                options.max_fixpoint_rounds
            )));
        }
        rounds += 1;
        stats.fixpoint_rounds += 1;
        let threads = options.degree(delta.len());
        let joined = match &table {
            Some(table) => ops::hash_join_probe(
                &delta, table, &output, &compiled, store, threads, cancel, stats,
            ),
            None => ops::nested_loop_join(
                &delta, base, &output, &compiled, store, threads, cancel, stats,
            ),
        };
        let fresh = joined.difference(&acc);
        if fresh.is_empty() {
            break;
        }
        acc = acc.union(&fresh);
        delta = fresh;
    }
    // A round cut short by cancellation looks like a fixpoint.
    options.cancel.check()?;
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::naive::NaiveEngine;
    use trial_core::builder::queries;
    use trial_core::{Expr, Pos, TriplestoreBuilder};

    fn chain(n: usize) -> Triplestore {
        let mut b = TriplestoreBuilder::new();
        for i in 0..n {
            b.add_triple("E", format!("n{i}"), "next", format!("n{}", i + 1));
        }
        b.finish()
    }

    fn run_star_with(
        expr: &Expr,
        store: &Triplestore,
        options: &EvalOptions,
    ) -> (TripleSet, EvalStats) {
        let mut stats = EvalStats::new();
        match expr {
            Expr::Star {
                input,
                output,
                cond,
                direction,
            } => {
                let base = NaiveEngine::new().run(input, store).unwrap();
                let result =
                    semi_naive_star(&base, output, cond, *direction, store, options, &mut stats)
                        .unwrap();
                (result, stats)
            }
            _ => panic!("expected a star expression"),
        }
    }

    fn run_star(expr: &Expr, store: &Triplestore) -> (TripleSet, EvalStats) {
        run_star_with(expr, store, &EvalOptions::default())
    }

    #[test]
    fn agrees_with_naive_on_chain_reachability() {
        let store = chain(12);
        let q = queries::reach_forward("E");
        let naive = NaiveEngine::new().run(&q, &store).unwrap();
        let (semi, stats) = run_star(&q, &store);
        assert_eq!(naive, semi);
        // A chain of 12 edges yields 12·13/2 = 78 reachability triples.
        assert_eq!(semi.len(), 78);
        assert!(stats.fixpoint_rounds >= 11);
    }

    #[test]
    fn delta_iteration_does_less_work_than_naive() {
        let store = chain(24);
        let q = queries::reach_forward("E");
        let naive_eval = NaiveEngine::new().evaluate(&q, &store).unwrap();
        let (_, semi_stats) = run_star(&q, &store);
        assert!(
            semi_stats.pairs_considered < naive_eval.stats.pairs_considered,
            "semi-naive should inspect fewer pairs ({} vs {})",
            semi_stats.pairs_considered,
            naive_eval.stats.pairs_considered
        );
    }

    #[test]
    fn parallel_rounds_match_single_threaded_rounds() {
        let store = chain(32);
        let q = queries::reach_forward("E");
        let sequential = EvalOptions {
            threads: 1,
            ..EvalOptions::default()
        };
        let (seq, seq_stats) = run_star_with(&q, &store, &sequential);
        for threads in [2usize, 4] {
            let parallel = EvalOptions {
                threads,
                parallel_min_rows: 0,
                ..EvalOptions::default()
            };
            let (par, par_stats) = run_star_with(&q, &store, &parallel);
            assert_eq!(seq, par, "parallel fixpoint diverges at {threads} threads");
            // Delta partitioning changes nothing about the iteration shape.
            assert_eq!(seq_stats.fixpoint_rounds, par_stats.fixpoint_rounds);
            assert_eq!(seq_stats.pairs_considered, par_stats.pairs_considered);
            assert_eq!(seq_stats.parallel_morsels, 0);
            assert!(par_stats.parallel_morsels > 0, "morsels must actually run");
        }
    }

    #[test]
    fn respects_round_limit() {
        let store = chain(10);
        let q = queries::reach_forward("E");
        let options = EvalOptions {
            max_fixpoint_rounds: 2,
            ..EvalOptions::default()
        };
        let Expr::Star {
            input,
            output,
            cond,
            direction,
        } = &q
        else {
            unreachable!()
        };
        let base = NaiveEngine::new().run(input, &store).unwrap();
        let mut stats = EvalStats::new();
        let err = semi_naive_star(
            &base, output, cond, *direction, &store, &options, &mut stats,
        )
        .unwrap_err();
        assert!(matches!(err, Error::LimitExceeded(_)));
    }

    #[test]
    fn empty_base_terminates_immediately() {
        let mut b = TriplestoreBuilder::new();
        b.relation("E");
        let store = b.finish();
        let mut stats = EvalStats::new();
        let out = trial_core::output(Pos::L1, Pos::L2, Pos::R3);
        let cond = Conditions::new().obj_eq(Pos::L3, Pos::R1);
        let result = semi_naive_star(
            &TripleSet::new(),
            &out,
            &cond,
            StarDirection::Right,
            &store,
            &EvalOptions::default(),
            &mut stats,
        )
        .unwrap();
        assert!(result.is_empty());
        assert_eq!(stats.fixpoint_rounds, 0);
    }
}

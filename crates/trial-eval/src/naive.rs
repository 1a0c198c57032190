//! The baseline engine: the paper's Theorem 3 algorithms, verbatim.
//!
//! * joins are evaluated by inspecting every pair of input triples
//!   (Procedure 1), which is `O(|T|²)` per join;
//! * Kleene stars are evaluated by the naive fixpoint
//!   `Re := Re ∪ (Re ✶ R1)` iterated until saturation (Procedure 2), which
//!   is `O(|T|³)` per star since at most `|adom|³` triples can ever be added
//!   and each round costs a join.
//!
//! The engine exists as a faithful reference point: the `trial-bench`
//! experiment tables compare it against [`crate::SmartEngine`] to reproduce
//! the shape of the Theorem 3 bounds and to quantify how much the
//! optimisations of Propositions 4 and 5 help (the paper's Section 7
//! future-work question).

use crate::cancel::CancelToken;
use crate::compile::CompiledConditions;
use crate::engine::{Engine, EvalOptions, EvalStats, Evaluation};
use crate::ops;
use trial_core::{Error, Expr, Result, StarDirection, TripleSet, Triplestore};

/// The literal Theorem-3 evaluation strategy.
#[derive(Debug, Clone, Default)]
pub struct NaiveEngine {
    /// Evaluation limits (the naive engine ignores the strategy switches).
    pub options: EvalOptions,
}

impl NaiveEngine {
    /// Creates the engine with default options.
    pub fn new() -> Self {
        NaiveEngine::default()
    }

    /// Creates the engine with explicit options.
    pub fn with_options(options: EvalOptions) -> Self {
        NaiveEngine { options }
    }

    fn eval(&self, expr: &Expr, store: &Triplestore, stats: &mut EvalStats) -> Result<TripleSet> {
        match expr {
            Expr::Rel(name) => Ok(store.require_relation(name)?.clone()),
            Expr::Universe => ops::universe(store, &self.options, stats),
            Expr::Empty => Ok(TripleSet::new()),
            Expr::Select { input, cond } => {
                let input = self.eval(input, store, stats)?;
                let cond = CompiledConditions::compile(cond, store);
                let rows = ops::select(
                    input.as_slice(),
                    &cond,
                    store,
                    1,
                    &CancelToken::none(),
                    stats,
                );
                Ok(TripleSet::from_sorted_vec(rows))
            }
            Expr::Union(a, b) => {
                let a = self.eval(a, store, stats)?;
                let b = self.eval(b, store, stats)?;
                stats.triples_scanned += (a.len() + b.len()) as u64;
                Ok(a.union(&b))
            }
            Expr::Diff(a, b) => {
                let a = self.eval(a, store, stats)?;
                let b = self.eval(b, store, stats)?;
                stats.triples_scanned += (a.len() + b.len()) as u64;
                Ok(a.difference(&b))
            }
            Expr::Intersect(a, b) => {
                let a = self.eval(a, store, stats)?;
                let b = self.eval(b, store, stats)?;
                stats.triples_scanned += (a.len() + b.len()) as u64;
                Ok(a.intersection(&b))
            }
            Expr::Complement(e) => {
                let e = self.eval(e, store, stats)?;
                let u = ops::universe(store, &self.options, stats)?;
                stats.triples_scanned += (e.len() + u.len()) as u64;
                Ok(u.difference(&e))
            }
            Expr::Join {
                left,
                right,
                output,
                cond,
            } => {
                let l = self.eval(left, store, stats)?;
                let r = self.eval(right, store, stats)?;
                let cond = CompiledConditions::compile(cond, store);
                Ok(ops::nested_loop_join(
                    &l,
                    &r,
                    output,
                    &cond,
                    store,
                    1,
                    &CancelToken::none(),
                    stats,
                ))
            }
            Expr::Star {
                input,
                output,
                cond,
                direction,
            } => {
                let base = self.eval(input, store, stats)?;
                let cond = CompiledConditions::compile(cond, store);
                self.naive_star(&base, output, &cond, *direction, store, stats)
            }
        }
    }

    /// Procedure 2: iterate `Re := Re ∪ (Re ✶ base)` (right closure) or
    /// `Re := Re ∪ (base ✶ Re)` (left closure) until no new triples appear.
    fn naive_star(
        &self,
        base: &TripleSet,
        output: &trial_core::OutputSpec,
        cond: &CompiledConditions,
        direction: StarDirection,
        store: &Triplestore,
        stats: &mut EvalStats,
    ) -> Result<TripleSet> {
        let mut acc = base.clone();
        let mut rounds: u64 = 0;
        loop {
            if rounds >= self.options.max_fixpoint_rounds {
                return Err(Error::LimitExceeded(format!(
                    "Kleene star exceeded {} fixpoint rounds",
                    self.options.max_fixpoint_rounds
                )));
            }
            rounds += 1;
            stats.fixpoint_rounds += 1;
            let (l, r) = match direction {
                StarDirection::Right => (&acc, base),
                StarDirection::Left => (base, &acc),
            };
            let joined =
                ops::nested_loop_join(l, r, output, cond, store, 1, &CancelToken::none(), stats);
            let next = acc.union(&joined);
            if next.len() == acc.len() {
                return Ok(acc);
            }
            acc = next;
        }
    }
}

impl Engine for NaiveEngine {
    fn name(&self) -> &'static str {
        "naive (Theorem 3)"
    }

    fn evaluate(&self, expr: &Expr, store: &Triplestore) -> Result<Evaluation> {
        expr.validate()?;
        let mut stats = EvalStats::new();
        let result = self.eval(expr, store, &mut stats)?;
        Ok(Evaluation { result, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trial_core::builder::queries;
    use trial_core::{Conditions, Pos, TriplestoreBuilder};

    /// The Figure-1 transport network.
    fn figure1() -> Triplestore {
        let mut b = TriplestoreBuilder::new();
        for (s, p, o) in [
            ("St.Andrews", "BusOp1", "Edinburgh"),
            ("Edinburgh", "TrainOp1", "London"),
            ("London", "TrainOp2", "Brussels"),
            ("BusOp1", "part_of", "NatExpress"),
            ("TrainOp1", "part_of", "EastCoast"),
            ("TrainOp2", "part_of", "Eurostar"),
            ("EastCoast", "part_of", "NatExpress"),
        ] {
            b.add_triple("E", s, p, o);
        }
        b.finish()
    }

    #[test]
    fn example2_matches_paper_result() {
        // Example 2: e = E ✶^{1,3',3}_{2=1'} E computes travel information
        // with operators lifted to their parent company (one step).
        let store = figure1();
        let engine = NaiveEngine::new();
        let eval = engine.evaluate(&queries::example2("E"), &store).unwrap();
        // The paper gives exactly this result table for Example 2.
        assert_eq!(
            store.display_triples(&eval.result),
            vec![
                "(Edinburgh, EastCoast, London)".to_string(),
                "(London, Eurostar, Brussels)".to_string(),
                "(St.Andrews, NatExpress, Edinburgh)".to_string(),
            ]
        );
        assert!(eval.stats.pairs_considered >= 49);
    }

    #[test]
    fn example3_left_vs_right_star_differ() {
        // Example 3: E = {(a,b,c), (c,d,e), (d,e,f)};
        // right closure of ✶^{1,2,2'}_{3=1'} adds (a,b,d) and (a,b,e),
        // the left closure only (a,b,d).
        let mut b = TriplestoreBuilder::new();
        b.add_triple("E", "a", "b", "c");
        b.add_triple("E", "c", "d", "e");
        b.add_triple("E", "d", "e", "f");
        let store = b.finish();
        let out = trial_core::output(Pos::L1, Pos::L2, Pos::R2);
        let cond = || Conditions::new().obj_eq(Pos::L3, Pos::R1);
        let right = Expr::rel("E").right_star(out, cond());
        let left = Expr::rel("E").left_star(out, cond());
        let engine = NaiveEngine::new();
        let r = engine.run(&right, &store).unwrap();
        let l = engine.run(&left, &store).unwrap();
        let base: Vec<String> = vec!["(a, b, c)".into(), "(c, d, e)".into(), "(d, e, f)".into()];
        let mut expect_r = base.clone();
        expect_r.extend(["(a, b, d)".to_string(), "(a, b, e)".to_string()]);
        expect_r.sort();
        let mut expect_l = base;
        expect_l.push("(a, b, d)".to_string());
        expect_l.sort();
        assert_eq!(store.display_triples(&r), expect_r);
        assert_eq!(store.display_triples(&l), expect_l);
    }

    #[test]
    fn query_q_on_figure1() {
        // Q: cities reachable using services of one company.
        // (Edinburgh, London) and (St.Andrews, London) qualify,
        // (St.Andrews, Brussels) does not (needs a company change).
        let store = figure1();
        let engine = NaiveEngine::new();
        let q = queries::same_company_reachability("E");
        let result = engine.run(&q, &store).unwrap();
        let rendered = store.display_triples(&result);
        let pairs: Vec<(String, String)> = result
            .iter()
            .map(|t| {
                (
                    store.object_name(t.s()).to_string(),
                    store.object_name(t.o()).to_string(),
                )
            })
            .collect();
        assert!(pairs.contains(&("Edinburgh".into(), "London".into())));
        assert!(pairs.contains(&("St.Andrews".into(), "London".into())));
        assert!(!pairs
            .iter()
            .any(|(s, o)| s == "St.Andrews" && o == "Brussels"));
        assert!(!rendered.is_empty());
    }

    #[test]
    fn set_operations_and_select() {
        let store = figure1();
        let engine = NaiveEngine::new();
        // Select part_of triples.
        let part_of = Expr::rel("E").select(Conditions::new().obj_eq_const(Pos::L2, "part_of"));
        let result = engine.run(&part_of, &store).unwrap();
        assert_eq!(result.len(), 4);
        // E minus part_of = travel triples.
        let travel = Expr::rel("E").minus(part_of.clone());
        assert_eq!(engine.run(&travel, &store).unwrap().len(), 3);
        // Union back = E.
        let back = travel.union(part_of.clone());
        assert_eq!(
            engine.run(&back, &store).unwrap(),
            *store.require_relation("E").unwrap()
        );
        // Intersection with E = part_of itself.
        let inter = part_of.clone().intersect(Expr::rel("E"));
        assert_eq!(engine.run(&inter, &store).unwrap().len(), 4);
        // Empty and unknown relation.
        assert!(engine.run(&Expr::Empty, &store).unwrap().is_empty());
        assert!(engine.run(&Expr::rel("missing"), &store).is_err());
    }

    #[test]
    fn complement_via_universe() {
        let mut b = TriplestoreBuilder::new();
        b.add_triple("E", "a", "b", "c");
        let store = b.finish();
        let engine = NaiveEngine::new();
        let compl = engine.run(&Expr::rel("E").complement(), &store).unwrap();
        // |adom|³ − |E| = 27 − 1.
        assert_eq!(compl.len(), 26);
        assert!(!compl.contains(&store.triple_by_names("a", "b", "c").unwrap()));
        // Complement twice gives back E (over the active domain).
        let twice = engine
            .run(&Expr::rel("E").complement().complement(), &store)
            .unwrap();
        assert_eq!(twice, *store.require_relation("E").unwrap());
    }

    #[test]
    fn fixpoint_round_limit_is_enforced() {
        let mut b = TriplestoreBuilder::new();
        // A long chain forces many fixpoint rounds.
        for i in 0..10 {
            b.add_triple("E", format!("n{i}"), "next", format!("n{}", i + 1));
        }
        let store = b.finish();
        let engine = NaiveEngine::with_options(EvalOptions {
            max_fixpoint_rounds: 2,
            ..EvalOptions::default()
        });
        let err = engine
            .run(&queries::reach_forward("E"), &store)
            .unwrap_err();
        assert!(matches!(err, Error::LimitExceeded(_)));
    }

    #[test]
    fn engine_reports_name_and_validates() {
        let engine = NaiveEngine::new();
        assert!(engine.name().contains("naive"));
        let store = figure1();
        let bad = Expr::rel("E").select(Conditions::new().obj_eq(Pos::L1, Pos::R1));
        assert!(engine.evaluate(&bad, &store).is_err());
    }
}

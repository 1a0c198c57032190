//! Condition compilation: resolving constants and pre-splitting atoms.
//!
//! Join and selection conditions reference object constants by *name* and
//! data constants by value. Resolving those against the store once per
//! operator (rather than once per candidate pair) keeps the inner loops of
//! the engines branch-light, and mirrors lines 1–3 of the paper's
//! Procedure 1 ("filter R1 and R2 according to the constant comparisons").

use trial_core::condition::{Cmp, Conditions, DataOperand, ObjOperand};
use trial_core::{ObjectId, Pos, Side, Triple, Triplestore, Value};

/// A `θ` atom with its constant (if any) resolved to an [`ObjectId`].
#[derive(Debug, Clone)]
pub enum CompiledObjAtom {
    /// `lhs cmp rhs` between two positions.
    PosPos {
        /// Left position.
        lhs: Pos,
        /// Comparison.
        cmp: Cmp,
        /// Right position.
        rhs: Pos,
    },
    /// `lhs cmp c` against a resolved constant. `None` means the named
    /// object does not occur in the store, so no position can ever equal it.
    PosConst {
        /// Left position.
        lhs: Pos,
        /// Comparison.
        cmp: Cmp,
        /// Resolved constant (None = unknown object).
        rhs: Option<ObjectId>,
    },
}

/// An `η` atom with its constant (if any) kept as a [`Value`].
#[derive(Debug, Clone)]
pub enum CompiledDataAtom {
    /// `ρ(lhs) cmp ρ(rhs)`.
    PosPos {
        /// Left position.
        lhs: Pos,
        /// Comparison.
        cmp: Cmp,
        /// Right position.
        rhs: Pos,
    },
    /// `ρ(lhs) cmp v`.
    PosConst {
        /// Left position.
        lhs: Pos,
        /// Comparison.
        cmp: Cmp,
        /// Constant value.
        rhs: Value,
    },
}

/// Conditions compiled against a particular store.
#[derive(Debug, Clone, Default)]
pub struct CompiledConditions {
    theta: Vec<CompiledObjAtom>,
    eta: Vec<CompiledDataAtom>,
}

impl CompiledConditions {
    /// Compiles `cond` against `store`.
    ///
    /// Unknown object constants do not fail compilation: an equality with an
    /// unknown object is unsatisfiable and an inequality with it is always
    /// satisfied, exactly as if the constant denoted a fresh object outside
    /// the active domain.
    pub fn compile(cond: &Conditions, store: &Triplestore) -> Self {
        let theta = cond
            .theta
            .iter()
            .map(|atom| match &atom.rhs {
                ObjOperand::Pos(p) => CompiledObjAtom::PosPos {
                    lhs: atom.lhs,
                    cmp: atom.cmp,
                    rhs: *p,
                },
                ObjOperand::Const(name) => CompiledObjAtom::PosConst {
                    lhs: atom.lhs,
                    cmp: atom.cmp,
                    rhs: store.object_id(name),
                },
            })
            .collect();
        let eta = cond
            .eta
            .iter()
            .map(|atom| match &atom.rhs {
                DataOperand::Pos(p) => CompiledDataAtom::PosPos {
                    lhs: atom.lhs,
                    cmp: atom.cmp,
                    rhs: *p,
                },
                DataOperand::Const(v) => CompiledDataAtom::PosConst {
                    lhs: atom.lhs,
                    cmp: atom.cmp,
                    rhs: v.clone(),
                },
            })
            .collect();
        CompiledConditions { theta, eta }
    }

    /// Returns `true` if there are no atoms at all.
    pub fn is_empty(&self) -> bool {
        self.theta.is_empty() && self.eta.is_empty()
    }

    /// Checks the conditions against a pair of triples (`left` addressed by
    /// unprimed positions, `right` by primed ones).
    pub fn check_pair(&self, store: &Triplestore, left: &Triple, right: &Triple) -> bool {
        for atom in &self.theta {
            let ok = match atom {
                CompiledObjAtom::PosPos { lhs, cmp, rhs } => {
                    let a = Triple::from_pair(left, right, *lhs);
                    let b = Triple::from_pair(left, right, *rhs);
                    cmp.apply(&a, &b)
                }
                CompiledObjAtom::PosConst { lhs, cmp, rhs } => {
                    let a = Triple::from_pair(left, right, *lhs);
                    match rhs {
                        Some(c) => cmp.apply(&a, c),
                        // Unknown constant: never equal to any object.
                        None => *cmp == Cmp::Neq,
                    }
                }
            };
            if !ok {
                return false;
            }
        }
        for atom in &self.eta {
            let ok = match atom {
                CompiledDataAtom::PosPos { lhs, cmp, rhs } => {
                    let a = Triple::from_pair(left, right, *lhs);
                    let b = Triple::from_pair(left, right, *rhs);
                    cmp.apply(store.value(a), store.value(b))
                }
                CompiledDataAtom::PosConst { lhs, cmp, rhs } => {
                    let a = Triple::from_pair(left, right, *lhs);
                    cmp.apply(store.value(a), rhs)
                }
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Checks conditions that only mention unprimed positions against a
    /// single triple (used by selections).
    pub fn check_single(&self, store: &Triplestore, t: &Triple) -> bool {
        self.check_pair(store, t, t)
    }

    /// Every position any atom names, once per occurrence: both sides of a
    /// position comparison, the position of a constant comparison.
    pub fn positions(&self) -> impl Iterator<Item = Pos> + '_ {
        let theta = self.theta.iter().flat_map(|atom| match atom {
            CompiledObjAtom::PosPos { lhs, rhs, .. } => [Some(*lhs), Some(*rhs)],
            CompiledObjAtom::PosConst { lhs, .. } => [Some(*lhs), None],
        });
        let eta = self.eta.iter().flat_map(|atom| match atom {
            CompiledDataAtom::PosPos { lhs, rhs, .. } => [Some(*lhs), Some(*rhs)],
            CompiledDataAtom::PosConst { lhs, .. } => [Some(*lhs), None],
        });
        theta.chain(eta).flatten()
    }

    /// The positions of cross equalities `(left, right)` usable as hash-join
    /// keys, after compilation. Mirrors
    /// [`Conditions::cross_equalities`](trial_core::Conditions::cross_equalities).
    pub fn cross_equalities(&self) -> Vec<(Pos, Pos)> {
        let mut out = Vec::new();
        for atom in &self.theta {
            if let CompiledObjAtom::PosPos {
                lhs,
                cmp: Cmp::Eq,
                rhs,
            } = atom
            {
                match (lhs.side(), rhs.side()) {
                    (Side::Left, Side::Right) => out.push((*lhs, *rhs)),
                    (Side::Right, Side::Left) => out.push((*rhs, *lhs)),
                    _ => {}
                }
            }
        }
        out
    }
}

/// Projects a joined pair of triples through an output specification.
#[inline]
pub fn project(left: &Triple, right: &Triple, output: &trial_core::OutputSpec) -> Triple {
    Triple::new(
        Triple::from_pair(left, right, output.get(0)),
        Triple::from_pair(left, right, output.get(1)),
        Triple::from_pair(left, right, output.get(2)),
    )
}

/// The components of one join side that the join reads, as a mask over
/// components 1, 2, 3 (the U rule of [`crate::ops`]). Two rows of one side
/// that agree on the mask produce exactly the same output rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Used(pub [bool; 3]);

impl Used {
    /// Every component: each row is its own projection, so nothing dedups.
    pub const ALL: Used = Used([true; 3]);

    /// `true` if the join reads every component of the side.
    #[inline]
    pub fn is_full(self) -> bool {
        self.0 == [true; 3]
    }

    /// The components of `t` the join reads, packed into one word: two rows
    /// of one side share the key exactly when they produce the same output.
    /// Only a mask that is not full has a key, and it reads at most two
    /// 32-bit ids.
    #[inline]
    pub fn key(self, t: &Triple) -> u64 {
        debug_assert!(!self.is_full(), "a full mask has no one-word key");
        (0..3)
            .filter(|&c| self.0[c])
            .fold(0, |key, c| key << 32 | u64::from(t.0[c].0))
    }
}

/// The U rule: for each side of a join, `[left, right]`, every component
/// that the output reads or that any `θ` or `η` atom names (cross, non-key,
/// single-side and constant atoms alike).
pub fn used_positions(output: &trial_core::OutputSpec, cond: &CompiledConditions) -> [Used; 2] {
    let mut used = [[false; 3]; 2];
    for p in output.iter().chain(cond.positions()) {
        used[usize::from(p.is_right())][p.component_index()] = true;
    }
    used.map(Used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trial_core::{Conditions, OutputSpec, TriplestoreBuilder};

    fn store() -> (Triplestore, Triple, Triple) {
        let mut b = TriplestoreBuilder::new();
        b.object_with_value("a", Value::int(1));
        b.object_with_value("b", Value::int(2));
        b.object_with_value("c", Value::int(1));
        b.add_triple("E", "a", "b", "c");
        b.add_triple("E", "c", "b", "a");
        let store = b.finish();
        let t1 = store.triple_by_names("a", "b", "c").unwrap();
        let t2 = store.triple_by_names("c", "b", "a").unwrap();
        (store, t1, t2)
    }

    #[test]
    fn pair_checks_object_equalities() {
        let (store, t1, t2) = store();
        // 3 = 1' holds: t1.o = c, t2.s = c.
        let c = CompiledConditions::compile(&Conditions::new().obj_eq(Pos::L3, Pos::R1), &store);
        assert!(c.check_pair(&store, &t1, &t2));
        assert!(!c.check_pair(&store, &t2, &t2)); // a != c
                                                  // Inequality flips it.
        let c = CompiledConditions::compile(&Conditions::new().obj_neq(Pos::L3, Pos::R1), &store);
        assert!(!c.check_pair(&store, &t1, &t2));
    }

    #[test]
    fn pair_checks_constants() {
        let (store, t1, t2) = store();
        let c = CompiledConditions::compile(&Conditions::new().obj_eq_const(Pos::L1, "a"), &store);
        assert!(c.check_single(&store, &t1));
        assert!(!c.check_single(&store, &t2));
        // Unknown constant: equality unsatisfiable, inequality always true.
        let c = CompiledConditions::compile(
            &Conditions::new().obj_eq_const(Pos::L1, "missing"),
            &store,
        );
        assert!(!c.check_single(&store, &t1));
        let c = CompiledConditions::compile(
            &Conditions::new().obj_neq_const(Pos::L1, "missing"),
            &store,
        );
        assert!(c.check_single(&store, &t1));
    }

    #[test]
    fn pair_checks_data_values() {
        let (store, t1, t2) = store();
        // ρ(1) = ρ(3'): ρ(a)=1, ρ(t2.o)=ρ(a)=1 → true.
        let c = CompiledConditions::compile(&Conditions::new().data_eq(Pos::L1, Pos::R3), &store);
        assert!(c.check_pair(&store, &t1, &t2));
        // ρ(1) = ρ(2): ρ(a)=1 vs ρ(b)=2 → false.
        let c = CompiledConditions::compile(&Conditions::new().data_eq(Pos::L1, Pos::L2), &store);
        assert!(!c.check_single(&store, &t1));
        // Constant data comparison.
        let c = CompiledConditions::compile(
            &Conditions::new().data_eq_const(Pos::L2, Value::int(2)),
            &store,
        );
        assert!(c.check_single(&store, &t1));
        let c = CompiledConditions::compile(
            &Conditions::new().data_neq_const(Pos::L2, Value::int(2)),
            &store,
        );
        assert!(!c.check_single(&store, &t1));
    }

    #[test]
    fn empty_conditions_always_hold() {
        let (store, t1, t2) = store();
        let c = CompiledConditions::compile(&Conditions::new(), &store);
        assert!(c.is_empty());
        assert!(c.check_pair(&store, &t1, &t2));
    }

    #[test]
    fn cross_equalities_survive_compilation() {
        let (store, _, _) = store();
        let c = CompiledConditions::compile(
            &Conditions::new()
                .obj_eq(Pos::L3, Pos::R1)
                .obj_eq(Pos::R2, Pos::L2)
                .obj_neq(Pos::L1, Pos::R3)
                .obj_eq(Pos::L1, Pos::L2),
            &store,
        );
        assert_eq!(
            c.cross_equalities(),
            vec![(Pos::L3, Pos::R1), (Pos::L2, Pos::R2)]
        );
    }

    #[test]
    fn used_positions_cover_output_and_every_atom() {
        let (store, t1, t2) = store();
        let cond = |c: Conditions| CompiledConditions::compile(&c, &store);
        let out = OutputSpec::new(Pos::L1, Pos::R1, Pos::R1);
        // Output plus the key: left {1, 3}, right {1}.
        let [l, r] = used_positions(&out, &cond(Conditions::new().obj_eq(Pos::L3, Pos::R1)));
        assert_eq!(
            (l, r),
            (Used([true, false, true]), Used([true, false, false]))
        );
        // A non-key inequality, an η atom and a constant each add their
        // positions, even where no output slot reads them.
        let c = Conditions::new()
            .obj_eq(Pos::L3, Pos::R1)
            .obj_neq(Pos::L2, Pos::R2)
            .data_eq(Pos::R3, Pos::R3)
            .obj_eq_const(Pos::L2, "b");
        let [l, r] = used_positions(&out, &cond(c));
        assert_eq!((l, r), (Used::ALL, Used::ALL));
        assert!(!Used([true, false, true]).is_full());
        // The key reads only what the mask keeps.
        let m = Used([false, true, false]);
        assert_eq!(m.key(&t1), m.key(&t2));
        let m = Used([true, false, true]);
        assert_ne!(m.key(&t1), m.key(&t2));
        assert_eq!(
            m.key(&t1),
            u64::from(t1.0[0].0) << 32 | u64::from(t1.0[2].0)
        );
    }

    #[test]
    fn projection_selects_positions() {
        let (store, t1, t2) = store();
        let out = OutputSpec::new(Pos::L1, Pos::R3, Pos::L3);
        let t = project(&t1, &t2, &out);
        assert_eq!(store.display_triple(&t), "(a, a, c)");
        let ident = project(&t1, &t2, &OutputSpec::IDENTITY);
        assert_eq!(ident, t1);
    }
}

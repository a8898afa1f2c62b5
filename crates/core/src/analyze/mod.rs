//! Static analysis over a [`DesignSpace`] — the `dse-verify` pass.
//!
//! The analyzer inspects a layer *without binding a single property* and
//! reports defects that would otherwise surface only mid-session (or
//! never): malformed and unresolvable constraints, derivation-graph
//! cycles, contradictions under the declared domains, dead options,
//! shadowed properties and unreachable child CDOs. Every finding is a
//! [`Diagnostic`](crate::diag::Diagnostic) with a stable `DSLnnn` code —
//! see [`crate::diag::DiagCode`] for the catalogue.
//!
//! Soundness posture: **errors** are definite (the space is malformed);
//! **warnings/notes** are best-effort and only emitted when the analyzer
//! can enumerate the relevant domains exhaustively. Constraints touching
//! non-enumerable domains (wide integer ranges, reals) are skipped by the
//! domain passes rather than guessed at.
//!
//! ```
//! use dse::prelude::*;
//! use dse::analyze;
//!
//! let mut space = DesignSpace::new("demo");
//! let root = space.add_root("Root", "");
//! space.add_constraint_unchecked(root, ConsistencyConstraint::new(
//!     "CCX", "refers to nothing",
//!     ["Ghost".to_owned()], [],
//!     Relation::InconsistentOptions(Pred::is("Ghost", 1)),
//! ));
//! let report = analyze::analyze(&space);
//! assert!(report.has_errors()); // DSL002: "Ghost" is never declared
//! ```

mod domains;
mod graph;
pub mod solve;
mod structure;

pub use graph::DerivationGraph;

use std::collections::BTreeSet;

use crate::constraint::{ConsistencyConstraint, Relation};
use crate::diag::{DiagCode, Diagnostic, Report, Span};
use crate::expr::Pred;
use crate::hierarchy::{CdoId, DesignSpace};
use crate::value::{Domain, Value};

/// Per-node diagnostics, one lane per analysis pass. Lanes let the merge
/// reproduce the pass-major order the sequential analyzer used (all
/// constraint findings across the space, then all graph findings, …), so
/// the parallel fan-out is bit-identical to a sequential run: `Report::
/// sort` is stable, and ties keep their pre-sort push order.
#[derive(Default)]
struct NodeFindings {
    constraints: Vec<Diagnostic>,
    graph: Vec<Diagnostic>,
    contradictions: Vec<Diagnostic>,
    dead_options: Vec<Diagnostic>,
    unreachable: Vec<Diagnostic>,
    shadowed: Vec<Diagnostic>,
    dangling: Vec<Diagnostic>,
    unspecialized: Vec<Diagnostic>,
}

impl NodeFindings {
    /// The lanes in sequential pass order.
    fn into_lanes(self) -> [Vec<Diagnostic>; 8] {
        [
            self.constraints,
            self.graph,
            self.contradictions,
            self.dead_options,
            self.unreachable,
            self.shadowed,
            self.dangling,
            self.unspecialized,
        ]
    }
}

/// Which engine the domain passes (DSL005/006/008/009) prove their
/// verdicts with. Both are exact on the spaces they can finish; they
/// differ only in reach and speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DomainEngine {
    /// Propagation-guided exact search ([`solve`]): interval/bitset
    /// abstraction prunes decided subspaces, so verdicts over millions
    /// of joint combinations finish without enumerating them. The
    /// default.
    #[default]
    Propagation,
    /// The legacy exhaustive odometer, capped at
    /// `MAX_COMBINATIONS` joint combinations. Kept as the test oracle
    /// (selected through [`analyze_with_engine`]): on any space it can
    /// finish, the propagation engine must agree bit-for-bit.
    Exhaustive,
}

/// An analysis [`Report`] plus the solver-side work counters behind it
/// (zero under the exhaustive oracle).
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The combined, deduplicated, severity-sorted findings.
    pub report: Report,
    /// Propagation-engine work counters accumulated across the domain
    /// passes (all zero under [`DomainEngine::Exhaustive`]).
    pub stats: solve::SolveTotals,
}

/// Runs every analysis pass over `space` and returns the combined,
/// deduplicated, severity-sorted report, proving domain verdicts with
/// [`DomainEngine::Propagation`].
pub fn analyze(space: &DesignSpace) -> Report {
    analyze_with_engine(space, DomainEngine::Propagation)
}

/// [`analyze`] with an explicit domain-pass engine.
pub fn analyze_with_engine(space: &DesignSpace, engine: DomainEngine) -> Report {
    analyze_detailed(space, engine).report
}

/// Runs every analysis pass over `space` and returns the combined,
/// deduplicated, severity-sorted report together with the solver work
/// counters.
///
/// The passes fan out per CDO on the [`foundation::par`] work-stealing
/// pool (every check only reads ancestor/subtree state, never sibling
/// results), and the domain-pass verdicts share a [`domains::ElimMemo`]
/// so identical subtrees are checked once. Results are merged in
/// node-id and pass order, which makes the report bit-identical to a
/// sequential run regardless of `DSE_THREADS`.
pub fn analyze_detailed(space: &DesignSpace, engine: DomainEngine) -> Analysis {
    let ids: Vec<CdoId> = space.iter().map(|(id, _)| id).collect();
    let memo = domains::ElimMemo::new(engine);
    let per_node = foundation::par::par_map(ids, |id| {
        let mut f = NodeFindings::default();
        constraints_node(space, id, &mut f.constraints);
        graph::check_node(space, id, &mut f.graph);
        domains::contradictions_node(space, id, &memo, &mut f.contradictions);
        domains::dead_options_node(space, id, &memo, &mut f.dead_options);
        domains::unreachable_node(space, id, &memo, &mut f.unreachable);
        structure::shadowed_node(space, id, &mut f.shadowed);
        structure::dangling_node(space, id, &mut f.dangling);
        structure::unspecialized_node(space, id, &mut f.unspecialized);
        f
    });
    let mut report = Report::new();
    let mut lanes: Vec<[Vec<Diagnostic>; 8]> =
        per_node.into_iter().map(NodeFindings::into_lanes).collect();
    for pass in 0..8 {
        for node in &mut lanes {
            for d in node[pass].drain(..) {
                report.push(d);
            }
        }
    }
    dedup(&mut report);
    report.sort();
    Analysis {
        report,
        stats: memo.totals(),
    }
}

/// The topological property-evaluation order implied by the constraints
/// effective at `cdo`: every independent property precedes the dependents
/// it orders.
///
/// # Errors
///
/// Returns a report carrying [`DiagCode::DerivationCycle`] when the
/// ordering edges form a cycle (no valid order exists).
pub fn evaluation_order(space: &DesignSpace, cdo: CdoId) -> Result<Vec<String>, Report> {
    let constraints: Vec<&ConsistencyConstraint> = space
        .effective_constraints(cdo)
        .into_iter()
        .map(|(_, c)| c)
        .collect();
    let g = DerivationGraph::from_constraints(constraints.iter().copied());
    g.topo_order().map_err(|cyclic| {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            DiagCode::DerivationCycle,
            Span::at(space.path_string(cdo)),
            format!("no evaluation order exists: cycle through {}", cyclic.join(", ")),
        ));
        r
    })
}

// ---------------------------------------------------------------------
// Shared scope helpers.
// ---------------------------------------------------------------------

/// Every CDO in the subtree rooted at `id` (inclusive).
pub(crate) fn subtree(space: &DesignSpace, id: CdoId) -> Vec<CdoId> {
    let mut out = Vec::new();
    let mut stack = vec![id];
    while let Some(n) = stack.pop() {
        out.push(n);
        stack.extend(space.node(n).children().iter().copied());
    }
    out
}

/// The CDOs whose declarations are relevant to a constraint attached at
/// `id`: the ancestor chain (whose properties `id` inherits) plus the
/// subtree (whose properties the constraint governs once the session
/// descends).
pub(crate) fn scope_nodes(space: &DesignSpace, id: CdoId) -> Vec<CdoId> {
    let mut out = space.ancestry(id);
    for n in subtree(space, id) {
        if n != id {
            out.push(n);
        }
    }
    out
}

/// The property a quantitative/estimator relation produces, if any.
pub(crate) fn derived_target(c: &ConsistencyConstraint) -> Option<&str> {
    match c.relation() {
        Relation::Quantitative { target, .. } => Some(target),
        Relation::EstimatorContext { output, .. } => Some(output),
        _ => None,
    }
}

/// The predicate of an inconsistency/dominance relation, if any.
pub(crate) fn constraint_pred(c: &ConsistencyConstraint) -> Option<&Pred> {
    match c.relation() {
        Relation::InconsistentOptions(p) | Relation::Dominance(p) => Some(p),
        _ => None,
    }
}

/// Every property name a constraint mentions: the declared sets plus the
/// relation's own references and produced target.
pub(crate) fn constraint_refs(c: &ConsistencyConstraint) -> BTreeSet<String> {
    let mut out: BTreeSet<String> = c.indep().iter().cloned().collect();
    out.extend(c.dep().iter().cloned());
    match c.relation() {
        Relation::InconsistentOptions(p) | Relation::Dominance(p) => {
            out.extend(p.references());
        }
        Relation::Quantitative {
            target, formula, ..
        } => {
            out.extend(formula.references());
            out.insert(target.clone());
        }
        Relation::EstimatorContext { inputs, output, .. } => {
            out.extend(inputs.iter().cloned());
            out.insert(output.clone());
        }
    }
    out
}

/// Resolves the declared domain of `name` as seen from `anchor`: the
/// inheritance chain first, then anywhere in the subtree (a constraint at
/// a CDO may legally reference properties its descendants declare).
pub(crate) fn domain_at<'a>(
    space: &'a DesignSpace,
    anchor: CdoId,
    name: &str,
) -> Option<&'a Domain> {
    if let Some((_, p)) = space.find_property(anchor, name) {
        return Some(p.domain());
    }
    for id in subtree(space, anchor) {
        if let Some(p) = space.node(id).own_properties().iter().find(|p| p.name() == name) {
            return Some(p.domain());
        }
    }
    None
}

// ---------------------------------------------------------------------
// Per-constraint checks: DSL001 / DSL002 / DSL011.
// ---------------------------------------------------------------------

fn constraints_node(space: &DesignSpace, id: CdoId, out: &mut Vec<Diagnostic>) {
    let node = space.node(id);
    if node.own_constraints().is_empty() {
        return;
    }
    let path = space.path_string(id);
    let scope = scope_nodes(space, id);
    // Resolvable names: everything declared in scope, plus everything
    // a quantitative/estimator relation in scope produces (derived
    // metrics such as `LatencyCycles` are never declared as
    // properties — the relation itself introduces them).
    let mut resolvable: BTreeSet<&str> = BTreeSet::new();
    for &n in &scope {
        for p in space.node(n).own_properties() {
            resolvable.insert(p.name());
        }
        for c in space.node(n).own_constraints() {
            if let Some(t) = derived_target(c) {
                resolvable.insert(t);
            }
        }
    }

    for c in node.own_constraints() {
        let span = Span::at(path.clone()).constraint(c.name());
        if !c.well_formed() {
            let listed: BTreeSet<&str> = c
                .indep()
                .iter()
                .chain(c.dep().iter())
                .map(String::as_str)
                .collect();
            let stray: Vec<String> = constraint_refs(c)
                .into_iter()
                .filter(|r| !listed.contains(r.as_str()))
                .collect();
            out.push(Diagnostic::new(
                DiagCode::MalformedConstraint,
                span.clone(),
                format!(
                    "relation references {} outside the declared indep/dep sets",
                    quote_list(&stray)
                ),
            ));
        }
        for r in constraint_refs(c) {
            if !resolvable.contains(r.as_str()) {
                out.push(Diagnostic::new(
                    DiagCode::UnresolvedReference,
                    span.clone(),
                    format!(
                        "references {r:?}, which no CDO in scope declares and no relation derives"
                    ),
                ));
            }
        }
        if let Some(pred) = constraint_pred(c) {
            for (prop, value) in literal_comparisons(pred) {
                if let Some(domain) = domain_at(space, id, prop) {
                    if !domain.contains(value) {
                        out.push(Diagnostic::new(
                            DiagCode::LiteralOutsideDomain,
                            span.clone().property(prop),
                            format!(
                                "compares {prop:?} against {value}, outside its domain {domain}"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Every `property = literal` / `property ≠ literal` leaf of a predicate.
fn literal_comparisons(pred: &Pred) -> Vec<(&str, &Value)> {
    let mut out = Vec::new();
    collect_literals(pred, &mut out);
    out
}

fn collect_literals<'a>(pred: &'a Pred, out: &mut Vec<(&'a str, &'a Value)>) {
    match pred {
        Pred::Is(p, v) | Pred::IsNot(p, v) => out.push((p, v)),
        Pred::And(ps) | Pred::Or(ps) => {
            for p in ps {
                collect_literals(p, out);
            }
        }
        Pred::Not(p) => collect_literals(p, out),
        _ => {}
    }
}

pub(crate) fn quote_list(names: &[String]) -> String {
    let quoted: Vec<String> = names.iter().map(|n| format!("{n:?}")).collect();
    quoted.join(", ")
}

fn dedup(report: &mut Report) {
    let mut seen = BTreeSet::new();
    let kept: Vec<Diagnostic> = report
        .diagnostics()
        .iter()
        .filter(|d| seen.insert(format!("{d}")))
        .cloned()
        .collect();
    *report = Report::from_diagnostics(kept);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::Property;

    fn space_with_cc2_chain() -> (DesignSpace, CdoId) {
        let mut s = DesignSpace::new("t");
        let root = s.add_root("Root", "");
        s.add_property(root, Property::requirement("EOL", Domain::int_range(8, 4096), None, ""))
            .unwrap();
        s.add_property(
            root,
            Property::issue_with_default("Radix", Domain::PowersOfTwo { max_exp: 4 }, Value::Int(2), ""),
        )
        .unwrap();
        s.add_constraint(
            root,
            ConsistencyConstraint::new(
                "CC2",
                "",
                ["Radix".to_owned(), "EOL".to_owned()],
                ["Latency".to_owned()],
                Relation::Quantitative {
                    target: "Latency".to_owned(),
                    formula: crate::expr::Expr::prop("EOL").div(crate::expr::Expr::prop("Radix")),
                    fidelity: crate::constraint::Fidelity::Heuristic,
                },
            ),
        )
        .unwrap();
        (s, root)
    }

    #[test]
    fn clean_space_analyzes_clean() {
        let (s, _) = space_with_cc2_chain();
        let r = analyze(&s);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn evaluation_order_puts_independents_first() {
        let (s, root) = space_with_cc2_chain();
        let order = evaluation_order(&s, root).unwrap();
        let pos = |n: &str| order.iter().position(|x| x == n).unwrap();
        assert!(pos("EOL") < pos("Latency"));
        assert!(pos("Radix") < pos("Latency"));
    }

    #[test]
    fn evaluation_order_reports_cycles() {
        let (mut s, root) = space_with_cc2_chain();
        s.add_constraint_unchecked(
            root,
            ConsistencyConstraint::new(
                "CCback",
                "",
                ["Latency".to_owned()],
                ["EOL".to_owned()],
                Relation::InconsistentOptions(Pred::cmp(
                    crate::expr::CmpOp::Gt,
                    crate::expr::Expr::prop("Latency"),
                    crate::expr::Expr::prop("EOL"),
                )),
            ),
        );
        let err = evaluation_order(&s, root).unwrap_err();
        assert!(err.has_errors());
        assert_eq!(err.diagnostics()[0].code, DiagCode::DerivationCycle);
    }

    #[test]
    fn scope_covers_ancestors_and_subtree() {
        let mut s = DesignSpace::new("t");
        let root = s.add_root("R", "");
        let a = s.add_child(root, "A", "");
        let b = s.add_child(a, "B", "");
        let side = s.add_child(root, "Side", "");
        let scope = scope_nodes(&s, a);
        assert!(scope.contains(&root) && scope.contains(&a) && scope.contains(&b));
        assert!(!scope.contains(&side));
    }
}

//! Executing PROD-LOCAL algorithms on oriented grids.

use lcl::{HalfEdgeLabeling, InLabel, OutLabel};
use lcl_faults::{inject_panic, isolate, plan::perturb, record_fault, Degraded, RunOptions};
use lcl_obs::{Counter, Event, RunReport, Span, Trace};

use crate::grid::OrientedGrid;
use crate::ids::ProdIds;
use crate::view::{GridView, RankGridView};

/// A PROD-LOCAL algorithm (Definition 5.2): a function from box views with
/// per-dimension identifiers to the center's `2d` half-edge outputs.
pub trait ProdLocalAlgorithm {
    /// The radius `T(n)`.
    fn radius(&self, n: usize) -> u32;

    /// Outputs for the center's ports (`2d` labels, port order: `+0, -0,
    /// +1, -1, ...`).
    fn label(&self, view: &GridView) -> Vec<OutLabel>;

    /// A short name for diagnostics.
    fn name(&self) -> &str {
        "anonymous"
    }
}

/// An order-invariant PROD-LOCAL algorithm: a function of the rank view
/// only (the hypothesis of Proposition 5.5).
pub trait OrderInvariantProdAlgorithm {
    /// The radius `T(n)`.
    fn radius(&self, n: usize) -> u32;

    /// Outputs for the center's ports.
    fn label(&self, view: &RankGridView) -> Vec<OutLabel>;

    /// A short name for diagnostics.
    fn name(&self) -> &str {
        "anonymous"
    }
}

/// The result of a PROD-LOCAL run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProdRun {
    /// The produced half-edge labeling on the grid's graph.
    pub output: HalfEdgeLabeling<OutLabel>,
    /// The radius used for this `n`.
    pub radius: u32,
}

fn build_view(
    grid: &OrientedGrid,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &ProdIds,
    center: lcl_graph::NodeId,
    radius: u32,
    n: usize,
) -> GridView {
    let d = grid.dimension_count();
    let t = radius as i64;
    let coords = grid.coords(center);
    let view_ids: Vec<Vec<u64>> = (0..d)
        .map(|k| {
            let s = grid.dims()[k] as i64;
            (-t..=t)
                .map(|o| {
                    let c = (((coords[k] as i64 + o) % s + s) % s) as usize;
                    ids.id(k, c)
                })
                .collect()
        })
        .collect();

    // Enumerate window nodes in mixed-radix order (dimension 0 fastest).
    let side = 2 * radius as usize + 1;
    let window = side.pow(d as u32);
    let mut inputs = Vec::with_capacity(window * 2 * d);
    let mut offsets = vec![-t; d];
    for _ in 0..window {
        let w = grid.offset(center, &offsets);
        for h in grid.graph().half_edges_of(w) {
            inputs.push(input.get(h));
        }
        // Increment mixed-radix counter.
        for item in offsets.iter_mut() {
            if *item < t {
                *item += 1;
                break;
            }
            *item = -t;
        }
    }

    GridView {
        d,
        radius,
        n,
        ids: view_ids,
        inputs,
    }
}

/// Runs a PROD-LOCAL algorithm under [`RunOptions`]: optional event
/// capture, optional fault plan, through one per-cell loop. Budgets have
/// no dimension that applies to view-based PROD-LOCAL runs and are
/// ignored here.
///
/// A fault plan decides three things, each a no-op without one:
///
/// * **The ids the run sees** — each dimension's slice-identifier table
///   may be reshuffled ([`ProdIds::under`]), exploring Definition 5.2's
///   quantifier over assignments.
/// * **Per-cell injection** — a crash-stop at a round `≤ T` means the
///   cell cannot collect its radius-`T` box (a later crash never bites);
///   view corruption XOR-perturbs the slice identifiers in the cell's
///   window, its own coordinates excepted, and the cell still answers,
///   possibly incorrectly; an injected panic.
/// * **What a failing cell costs** — under a plan the cell's call is
///   panic-isolated, and a crash, panic or wrong arity becomes a typed
///   [`NodeFault`](lcl_faults::NodeFault) (view-based, so at round 0)
///   plus placeholder labels. Without one the outcome is
///   [`Degraded::clean`].
///
/// # Panics
///
/// Without a fault plan, if the algorithm panics or labels the wrong
/// number of ports.
pub fn simulate_with(
    alg: &(impl ProdLocalAlgorithm + ?Sized),
    grid: &OrientedGrid,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &ProdIds,
    n_announced: Option<usize>,
    opts: RunOptions<'_>,
) -> RunReport<Degraded<ProdRun>> {
    let (plan, log) = (opts.fault_plan(), opts.event_log());
    let ids = ids.under(plan);
    let n = n_announced.unwrap_or_else(|| grid.node_count());
    let radius = alg.radius(n);
    let mut span = Span::start(match plan {
        Some(_) => format!("prod-local/faulted/{}", alg.name()),
        None => format!("prod-local/{}", alg.name()),
    });
    let d = grid.dimension_count();
    let window = (2 * radius as u64 + 1).pow(d as u32);
    let mut view_nodes = 0u64;
    let mut faults = Vec::new();
    let output = HalfEdgeLabeling::from_node_fn(grid.graph(), |v| {
        let node = v.index() as u64;
        let crashed = plan.and_then(|p| p.crash_round(v.index()));
        if crashed.is_some_and(|r| r <= radius) {
            record_fault(&mut faults, log, node, 0, "crash-stop", "crash-stop".into());
            return vec![OutLabel(0); 2 * d];
        }
        let mut view = build_view(grid, input, &ids, v, radius, n);
        view_nodes += window;
        span.observe(Counter::ViewNodes, window);
        if let Some(log) = log {
            log.record(Event::ViewMaterialized {
                node,
                radius: u64::from(radius),
                size: window,
            });
        }
        if let Some(salt) = plan.and_then(|p| p.corrupt_salt(v.index())) {
            if let Some(log) = log {
                log.record(Event::Fault {
                    node,
                    round: 0,
                    fault: "corrupt-view",
                });
            }
            // The cell still knows its own slice identifiers (offset 0 in
            // every dimension, index `radius`); the rest of the window is
            // the adversary's to rewrite.
            let t = radius as usize;
            let mut word = 0u64;
            for row in view.ids.iter_mut() {
                for (i, id) in row.iter_mut().enumerate() {
                    if i != t {
                        *id ^= perturb(salt, word);
                    }
                    word += 1;
                }
            }
        }
        let Some(plan) = plan else {
            let labels = alg.label(&view);
            assert_eq!(
                labels.len(),
                2 * d,
                "algorithm {} must label all 2d ports",
                alg.name()
            );
            return labels;
        };
        let labels = if plan.panics(v.index()) {
            isolate(|| inject_panic(node))
        } else {
            isolate(|| alg.label(&view))
        };
        match labels {
            Ok(labels) if labels.len() == 2 * d => labels,
            Ok(labels) => {
                let payload = format!("returned {} labels for {} ports", labels.len(), 2 * d);
                record_fault(&mut faults, log, node, 0, "wrong-arity", payload);
                vec![OutLabel(0); 2 * d]
            }
            Err(payload) => {
                record_fault(&mut faults, log, node, 0, "panic", payload);
                vec![OutLabel(0); 2 * d]
            }
        }
    });
    span.set(Counter::Nodes, grid.node_count() as u64);
    span.set(Counter::Edges, grid.graph().edge_count() as u64);
    span.set(Counter::Queries, grid.node_count() as u64);
    span.set(Counter::Radius, u64::from(radius));
    span.set(Counter::Rounds, u64::from(radius));
    span.set(Counter::ViewNodes, view_nodes);
    if plan.is_some() {
        span.set(Counter::Faults, faults.len() as u64);
    }
    let degraded = Degraded {
        outcome: ProdRun { output, radius },
        faults,
    };
    RunReport::new(degraded, Trace::new(span.finish()))
}

/// Runs an order-invariant PROD-LOCAL algorithm (the identifiers only
/// contribute their relative order).
pub fn run_order_invariant_prod(
    alg: &(impl OrderInvariantProdAlgorithm + ?Sized),
    grid: &OrientedGrid,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &ProdIds,
    n_announced: Option<usize>,
) -> ProdRun {
    struct Adapter<'a, A: ?Sized>(&'a A);
    impl<A: OrderInvariantProdAlgorithm + ?Sized> ProdLocalAlgorithm for Adapter<'_, A> {
        fn radius(&self, n: usize) -> u32 {
            self.0.radius(n)
        }
        fn label(&self, view: &GridView) -> Vec<OutLabel> {
            self.0.label(&view.to_ranks())
        }
        fn name(&self) -> &str {
            self.0.name()
        }
    }
    simulate_with(
        &Adapter(alg),
        grid,
        input,
        ids,
        n_announced,
        RunOptions::new(),
    )
    .outcome
    .outcome
}

/// Empirically checks PROD-LOCAL order invariance: reruns the algorithm
/// under order-preserving resamplings of the per-dimension identifiers
/// and compares outputs. `false` is a definite counterexample (the
/// Proposition 5.4 hypothesis fails); `true` is evidence.
pub fn is_empirically_order_invariant_prod(
    alg: &(impl ProdLocalAlgorithm + ?Sized),
    grid: &OrientedGrid,
    input: &HalfEdgeLabeling<InLabel>,
    base_ids: &ProdIds,
    samples: usize,
    seed: u64,
) -> bool {
    let baseline = simulate_with(alg, grid, input, base_ids, None, RunOptions::new())
        .outcome
        .outcome;
    for s in 0..samples {
        let fresh = base_ids.resample_order_preserving(seed.wrapping_add(s as u64));
        let run = simulate_with(alg, grid, input, &fresh, None, RunOptions::new())
            .outcome
            .outcome;
        if run.output != baseline.output {
            return false;
        }
    }
    true
}

/// A [`ProdLocalAlgorithm`] built from closures.
pub struct FnProdAlgorithm<R, F> {
    name: String,
    radius: R,
    label: F,
}

impl<R, F> FnProdAlgorithm<R, F>
where
    R: Fn(usize) -> u32,
    F: Fn(&GridView) -> Vec<OutLabel>,
{
    /// Creates an algorithm from a radius function and a labeling function.
    pub fn new(name: &str, radius: R, label: F) -> Self {
        Self {
            name: name.to_string(),
            radius,
            label,
        }
    }
}

impl<R, F> ProdLocalAlgorithm for FnProdAlgorithm<R, F>
where
    R: Fn(usize) -> u32,
    F: Fn(&GridView) -> Vec<OutLabel>,
{
    fn radius(&self, n: usize) -> u32 {
        (self.radius)(n)
    }

    fn label(&self, view: &GridView) -> Vec<OutLabel> {
        (self.label)(view)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl<R, F> std::fmt::Debug for FnProdAlgorithm<R, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnProdAlgorithm")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_faults::{Fault, FaultPlan};
    use lcl_obs::EventLog;

    #[test]
    fn views_carry_slice_ids() {
        let grid = OrientedGrid::new(&[4, 5]);
        let ids = ProdIds::sequential(&grid);
        let input = lcl::uniform_input(grid.graph());
        // Every node outputs 1 iff its dim-0 id is the smallest visible
        // dim-0 slice id.
        let alg = FnProdAlgorithm::new(
            "min-slice",
            |_| 1,
            |view| {
                let mine = view.id(0, 0);
                let min = (-1..=1).map(|o| view.id(0, o)).min().unwrap();
                vec![OutLabel(u32::from(mine == min)); 2 * view.d]
            },
        );
        let run = simulate_with(&alg, &grid, &input, &ids, None, RunOptions::new())
            .outcome
            .outcome;
        assert_eq!(run.radius, 1);
        // With sequential ids, coordinate 0 is the smallest among {3,0,1}
        // (wrapping at side 4): nodes with x=0 adjacent to x=3 and x=1.
        let v = grid.node_at(&[0, 2]);
        let h = grid.graph().half_edge(v, 0);
        assert_eq!(run.output.get(h), OutLabel(1));
        let w = grid.node_at(&[2, 2]);
        let h = grid.graph().half_edge(w, 0);
        assert_eq!(run.output.get(h), OutLabel(0));
    }

    #[test]
    fn order_invariant_run_ignores_id_values() {
        let grid = OrientedGrid::new(&[3, 3]);
        let input = lcl::uniform_input(grid.graph());
        struct MinRank;
        impl OrderInvariantProdAlgorithm for MinRank {
            fn radius(&self, _n: usize) -> u32 {
                1
            }
            fn label(&self, view: &RankGridView) -> Vec<OutLabel> {
                let is_min =
                    (0..view.d).all(|k| (-1..=1).all(|o| view.rank(k, 0) <= view.rank(k, o)));
                vec![OutLabel(u32::from(is_min)); 2 * view.d]
            }
        }
        let a = ProdIds::random_polynomial(&grid, 3, 5);
        let b = a.resample_order_preserving(77);
        let run_a = run_order_invariant_prod(&MinRank, &grid, &input, &a, None);
        let run_b = run_order_invariant_prod(&MinRank, &grid, &input, &b, None);
        assert_eq!(run_a.output, run_b.output);
    }

    #[test]
    fn order_invariance_checker_separates() {
        let grid = OrientedGrid::new(&[4, 4]);
        let input = lcl::uniform_input(grid.graph());
        let ids = ProdIds::random_polynomial(&grid, 3, 3);
        // Rank-based: invariant.
        struct MinRank;
        impl OrderInvariantProdAlgorithm for MinRank {
            fn radius(&self, _n: usize) -> u32 {
                1
            }
            fn label(&self, view: &RankGridView) -> Vec<OutLabel> {
                let is_min = (-1..=1).all(|o| view.rank(0, 0) <= view.rank(0, o));
                vec![OutLabel(u32::from(is_min)); 2 * view.d]
            }
        }
        struct AsProd(MinRank);
        impl ProdLocalAlgorithm for AsProd {
            fn radius(&self, n: usize) -> u32 {
                self.0.radius(n)
            }
            fn label(&self, view: &GridView) -> Vec<OutLabel> {
                self.0.label(&view.to_ranks())
            }
        }
        assert!(is_empirically_order_invariant_prod(
            &AsProd(MinRank),
            &grid,
            &input,
            &ids,
            6,
            9
        ));
        // Value-based: not invariant.
        let parity = FnProdAlgorithm::new(
            "parity",
            |_| 0,
            |view| vec![OutLabel((view.id(0, 0) % 2) as u32); 2 * view.d],
        );
        assert!(!is_empirically_order_invariant_prod(
            &parity, &grid, &input, &ids, 12, 9
        ));
    }

    #[test]
    fn simulate_reports_window_counters() {
        let grid = OrientedGrid::new(&[4, 5]);
        let ids = ProdIds::sequential(&grid);
        let input = lcl::uniform_input(grid.graph());
        let alg = FnProdAlgorithm::new("const", |_| 1, |view| vec![OutLabel(0); 2 * view.d]);
        let report = simulate_with(&alg, &grid, &input, &ids, None, RunOptions::new());
        assert_eq!(report.trace.total(Counter::Nodes), 20);
        assert_eq!(report.trace.total(Counter::Radius), 1);
        // Each radius-1 window on a 2-torus has 3^2 = 9 nodes.
        assert_eq!(report.trace.total(Counter::ViewNodes), 20 * 9);
        assert_eq!(report.outcome.outcome.radius, 1);
    }

    #[test]
    fn simulate_prod_logged_records_window_events() {
        use lcl_obs::{Event, EventLog};
        let grid = OrientedGrid::new(&[4, 5]);
        let ids = ProdIds::sequential(&grid);
        let input = lcl::uniform_input(grid.graph());
        let alg = FnProdAlgorithm::new("const", |_| 1, |view| vec![OutLabel(0); 2 * view.d]);
        let log = EventLog::new(64);
        let report = simulate_with(
            &alg,
            &grid,
            &input,
            &ids,
            None,
            RunOptions::new().events(&log),
        );
        let events = log.events();
        assert_eq!(events.len(), 20);
        assert_eq!(
            events[0],
            Event::ViewMaterialized {
                node: 0,
                radius: 1,
                size: 9,
            }
        );
        let hist = report
            .trace
            .root()
            .histogram(Counter::ViewNodes)
            .expect("histogram recorded");
        assert_eq!(hist.count(), 20);
        assert_eq!(hist.sum(), 20 * 9);
    }

    #[test]
    fn cost_model_matches_window_counters() {
        use lcl_obs::{CostKind, EventLog};
        let grid = OrientedGrid::new(&[4, 5]);
        let ids = ProdIds::sequential(&grid);
        let input = lcl::uniform_input(grid.graph());
        let alg = FnProdAlgorithm::new("const", |_| 1, |view| vec![OutLabel(0); 2 * view.d]);
        // Zero capacity: a pure cost tally, no stored events.
        let log = EventLog::new(0);
        let report = simulate_with(
            &alg,
            &grid,
            &input,
            &ids,
            None,
            RunOptions::new().events(&log),
        );
        let cost = log.cost_model();
        assert_eq!(
            cost.get(CostKind::ViewMaterialized),
            report.trace.total(Counter::Queries)
        );
        // Per-node work is the window size; every radius-1 window on a
        // 2-torus holds 9 nodes.
        assert_eq!(cost.node_total(), report.trace.total(Counter::ViewNodes));
        assert_eq!(cost.node_averaged(), Some(9.0));
    }

    #[test]
    fn window_wraps_on_small_torus() {
        let grid = OrientedGrid::new(&[3, 3]);
        let ids = ProdIds::sequential(&grid);
        let input = lcl::uniform_input(grid.graph());
        // Radius 2 window (side 5) on a side-3 torus wraps: slices repeat.
        let alg = FnProdAlgorithm::new(
            "wrap",
            |_| 2,
            |view| {
                assert_eq!(view.id(0, -2), view.id(0, 1));
                assert_eq!(view.id(1, 2), view.id(1, -1));
                vec![OutLabel(0); 2 * view.d]
            },
        );
        let _ = simulate_with(&alg, &grid, &input, &ids, None, RunOptions::new());
    }

    #[test]
    fn center_of_view_is_the_node() {
        let grid = OrientedGrid::new(&[4, 4]);
        let ids = ProdIds::sequential(&grid);
        let input = lcl::uniform_input(grid.graph());
        let alg = FnProdAlgorithm::new(
            "echo-x",
            |_| 0,
            |view| {
                // With sequential ids, dim-0 id equals the x coordinate.
                vec![OutLabel(view.id(0, 0) as u32); 2 * view.d]
            },
        );
        let run = simulate_with(&alg, &grid, &input, &ids, None, RunOptions::new())
            .outcome
            .outcome;
        let v = grid.node_at(&[3, 1]);
        let h = grid.graph().half_edge(v, 0);
        assert_eq!(run.output.get(h), OutLabel(3));
    }

    fn echo_alg(
    ) -> FnProdAlgorithm<impl Fn(usize) -> u32, impl Fn(&crate::view::GridView) -> Vec<OutLabel>>
    {
        FnProdAlgorithm::new(
            "echo-x",
            |_| 1,
            |view| vec![OutLabel((view.id(0, 0) % 1000) as u32); 2 * view.d],
        )
    }

    #[test]
    fn a_crash_after_round_t_never_bites() {
        let grid = OrientedGrid::new(&[3, 3]);
        let ids = ProdIds::sequential(&grid);
        let input = lcl::uniform_input(grid.graph());
        let clean = simulate_with(&echo_alg(), &grid, &input, &ids, None, RunOptions::new())
            .outcome
            .outcome;
        // `echo_alg` has T = 1: a crash at round 2 comes after the cell
        // has collected its box, so its labels stay intact.
        let late = FaultPlan::new(0).with(Fault::Crash { node: 4, round: 2 });
        let log = EventLog::new(64);
        let opts = RunOptions::new().faults(&late).events(&log);
        let report = simulate_with(&echo_alg(), &grid, &input, &ids, None, opts);
        assert!(!report.outcome.is_degraded());
        assert_eq!(report.outcome.outcome, clean);
        assert!(log
            .events()
            .iter()
            .all(|e| !matches!(e, Event::Fault { .. })));
        // A crash at round T still bites.
        let on_time = FaultPlan::new(0).with(Fault::Crash { node: 4, round: 1 });
        let opts = RunOptions::new().faults(&on_time);
        let report = simulate_with(&echo_alg(), &grid, &input, &ids, None, opts);
        assert_eq!(report.outcome.faults.len(), 1);
        assert_eq!(report.outcome.faults[0].payload, "crash-stop");
    }

    #[test]
    fn crash_and_panic_degrade_cells_without_aborting() {
        let grid = OrientedGrid::new(&[3, 3]);
        let ids = ProdIds::sequential(&grid);
        let input = lcl::uniform_input(grid.graph());
        let plan = FaultPlan::new(0)
            .with(Fault::Crash { node: 1, round: 0 })
            .with(Fault::PanicNode { node: 4 });
        let log = EventLog::new(64);
        let opts = RunOptions::new().faults(&plan).events(&log);
        let report = simulate_with(&echo_alg(), &grid, &input, &ids, None, opts);
        let degraded = &report.outcome;
        assert_eq!(degraded.faults.len(), 2);
        assert_eq!(degraded.faults[0].payload, "crash-stop");
        assert!(degraded.faults[1]
            .payload
            .contains("injected panic at node 4"));
        assert_eq!(report.trace.total(Counter::Faults), 2);
        let fault_events = log
            .events()
            .iter()
            .filter(|e| matches!(e, Event::Fault { .. }))
            .count();
        assert_eq!(fault_events, 2);
    }

    #[test]
    fn corrupt_window_spares_the_cells_own_slices() {
        let grid = OrientedGrid::new(&[4, 4]);
        let ids = ProdIds::sequential(&grid);
        let input = lcl::uniform_input(grid.graph());
        // Echo own dim-0 id: corruption must not change it (offset 0 is
        // the cell's own slice), even though neighbors are perturbed.
        let plan = FaultPlan::new(0).with(Fault::CorruptView { node: 5, salt: 9 });
        let quiet = FaultPlan::new(0);
        let honest = simulate_with(
            &echo_alg(),
            &grid,
            &input,
            &ids,
            None,
            RunOptions::new().faults(&quiet),
        );
        let corrupted = simulate_with(
            &echo_alg(),
            &grid,
            &input,
            &ids,
            None,
            RunOptions::new().faults(&plan),
        );
        assert!(!corrupted.outcome.is_degraded(), "silent corruption");
        assert_eq!(corrupted.outcome.outcome, honest.outcome.outcome);
        // An algorithm reading a *neighbor* slice does see the corruption.
        let neighbor_alg = FnProdAlgorithm::new(
            "echo-left",
            |_| 1,
            |view| vec![OutLabel((view.id(0, -1) % 1000) as u32); 2 * view.d],
        );
        let honest = simulate_with(
            &neighbor_alg,
            &grid,
            &input,
            &ids,
            None,
            RunOptions::new().faults(&quiet),
        );
        let corrupted = simulate_with(
            &neighbor_alg,
            &grid,
            &input,
            &ids,
            None,
            RunOptions::new().faults(&plan),
        );
        assert_ne!(corrupted.outcome.outcome, honest.outcome.outcome);
    }

    #[test]
    fn id_permutation_reshuffles_slices_deterministically() {
        let grid = OrientedGrid::new(&[4, 5]);
        let ids = ProdIds::sequential(&grid);
        let input = lcl::uniform_input(grid.graph());
        let plan = FaultPlan::new(17).with_permuted_ids();
        let a = simulate_with(
            &echo_alg(),
            &grid,
            &input,
            &ids,
            None,
            RunOptions::new().faults(&plan),
        );
        let b = simulate_with(
            &echo_alg(),
            &grid,
            &input,
            &ids,
            None,
            RunOptions::new().faults(&plan),
        );
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.trace.fingerprint(), b.trace.fingerprint());
        // Per column, outputs are a permutation of the sequential ids.
        let mut seen: Vec<u32> = (0..4)
            .map(|x| {
                let v = grid.node_at(&[x, 0]);
                a.outcome.outcome.output.get(grid.graph().half_edge(v, 0)).0
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }
}

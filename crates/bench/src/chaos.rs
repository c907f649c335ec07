//! The chaos table: every fault-injection instance, built from
//! `(model, seed)` — graph, ids, algorithm and seeded [`FaultPlan`] —
//! in one place. The chaos soak (`tests/chaos.rs`, the [`Model::SOAK`]
//! models), [`chaos_stage`] (`--bench chaos`) and [`shrink`] (the
//! `shrink-chaos` binary) all draw from it, so a failing soak seed
//! shrinks to its own repro.
//!
//! The `shard` and `proc` models exist for the shrinker alone: their
//! soaks (`tests/shard_chaos.rs`, `crates/procshard/tests/proc_chaos.rs`)
//! build instances from a seed set and a base size, not from a seed, so
//! no soak run is seed-for-seed one of these.

use std::time::Instant;

use lcl::{uniform_input, HalfEdgeLabeling, OutLabel};
use lcl_faults::{Degraded, FaultPlan, NodeFault, RunOptions};
use lcl_graph::{gen, Graph, HalfEdgeId};
use lcl_grid::{FnProdAlgorithm, GridView, OrientedGrid, ProdIds};
use lcl_local::{simulate_sync_with, IdAssignment, SyncRun};
use lcl_problems::DeltaPlusOne;
use lcl_procshard::{
    run_proc_sharded, AlgSpec, GraphSpec, InputSpec, ProcError, ProcJob, ProcOptions,
};
use lcl_rng::SmallRng;
use lcl_volume::lca::VolumeAsLca;
use lcl_volume::{
    simulate_lca_with, simulate_with as simulate_volume_with, FnVolumeAlgorithm, ProbeError,
    ProbeSession, VolumeRun,
};

use crate::shrink::shrink_plan;
use crate::table::Table;

/// How many shards the `shard` and `proc` instances are cut into.
const SHARDS: usize = 4;

/// Why a VOLUME or LCA chaos run cannot fail.
const UNDER_A_PLAN: &str = "why: under a fault plan a probe error is a fault record, not an Err";

/// One model of the chaos table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Model {
    /// Δ+1 colouring on a random tree, through the sync executor.
    Local,
    /// A neighbour-probe algorithm on a cycle.
    Volume,
    /// The same probe algorithm as an LCA on a path, ids exactly `1..=n`
    /// (the LCA promise, which every plan's id permutation preserves).
    Lca,
    /// An echo algorithm on an oriented 2-dimensional grid.
    Prod,
    /// Δ+1 colouring on a random tree, sharded in process.
    Shard,
    /// A guarded flood on a random tree, one worker process per shard.
    Proc,
}

impl Model {
    /// Every model, in `shrink-chaos` order.
    pub const ALL: [Model; 6] = [
        Model::Local,
        Model::Volume,
        Model::Lca,
        Model::Prod,
        Model::Shard,
        Model::Proc,
    ];

    /// The models of the chaos soak and of [`chaos_stage`].
    pub const SOAK: [Model; 4] = [Model::Local, Model::Volume, Model::Lca, Model::Prod];

    /// The model's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Model::Local => "local",
            Model::Volume => "volume",
            Model::Lca => "lca",
            Model::Prod => "prod",
            Model::Shard => "shard",
            Model::Proc => "proc",
        }
    }

    /// The model named `name`, if any.
    pub fn parse(name: &str) -> Option<Model> {
        Model::ALL.into_iter().find(|m| m.name() == name)
    }

    /// The seeded size draw: `[n]`, or the PROD grid's two sides.
    fn dims(self, seed: u64) -> Vec<usize> {
        let (salt, sides, range) = match self {
            Model::Local => (0, 1, 6usize..32),
            Model::Volume => (0xabcd, 1, 4..24),
            Model::Lca => (0x77, 1, 4..24),
            Model::Prod => (0xfeed, 2, 3..7),
            Model::Shard => (0x5a4d, 1, 24..96),
            Model::Proc => (0x9c0c, 1, 24..96),
        };
        let mut rng = SmallRng::seed_from_u64(seed ^ salt);
        (0..sides).map(|_| rng.gen_range(range.clone())).collect()
    }

    /// The node count of the instance for `seed`.
    pub fn size(self, seed: u64) -> usize {
        self.dims(seed).iter().product()
    }

    /// The seeded random plan for `seed`: node faults in rounds up to 1
    /// on the PROD grid and up to 4 elsewhere, plus two whole-shard
    /// losses (`shard`) or two worker `SIGKILL`s (`proc`).
    pub fn plan(self, seed: u64) -> FaultPlan {
        let max_round = if self == Model::Prod { 1 } else { 4 };
        let mut plan = FaultPlan::random(seed, self.size(seed), max_round);
        let shard_faults = match self {
            Model::Shard => FaultPlan::random_shard_chaos(seed, SHARDS, 2, 2),
            Model::Proc => FaultPlan::random_kill_chaos(seed, SHARDS, 2, 2),
            _ => FaultPlan::new(seed),
        };
        for &fault in shard_faults.faults() {
            plan = plan.with(fault);
        }
        plan
    }

    /// Builds the instance for `seed` and runs it under `plan`; `proc`
    /// locates the worker binary of the `proc` model.
    ///
    /// # Errors
    ///
    /// A `proc` run the supervisor cannot finish.
    pub fn run(
        self,
        seed: u64,
        plan: &FaultPlan,
        proc: &ProcOptions,
    ) -> Result<ChaosRun, ProcError> {
        let dims = self.dims(seed);
        let n = dims.iter().product();
        let opts = RunOptions::new().faults(plan);
        let tree_ids = |salt| -> Vec<u64> {
            IdAssignment::random_polynomial(n, 3, seed ^ salt)
                .iter()
                .collect()
        };
        Ok(match self {
            Model::Local => {
                let g = gen::random_tree(n, 3, seed);
                let report = simulate_sync_with(
                    &DeltaPlusOne { delta: 3 },
                    &g,
                    &uniform_input(&g),
                    &tree_ids(1),
                    None,
                    1000,
                    opts,
                );
                ChaosRun::sync(g, report.outcome)
            }
            Model::Volume => {
                let g = gen::cycle(n);
                let report = simulate_volume_with(
                    &neighbor_probe_alg(),
                    &g,
                    &uniform_input(&g),
                    &IdAssignment::random_polynomial(n, 3, seed ^ 2),
                    None,
                    opts,
                )
                .expect(UNDER_A_PLAN);
                ChaosRun::volume(g, report.outcome)
            }
            Model::Lca => {
                let g = gen::path(n);
                let report = simulate_lca_with(
                    &VolumeAsLca(neighbor_probe_alg()),
                    &g,
                    &uniform_input(&g),
                    &IdAssignment::from_vec((1..=n as u64).collect()),
                    opts,
                )
                .expect(UNDER_A_PLAN);
                ChaosRun::volume(g, report.outcome)
            }
            Model::Prod => {
                let grid = OrientedGrid::new(&dims);
                let alg = FnProdAlgorithm::new(
                    "chaos-echo",
                    |_| 1,
                    |view: &GridView| vec![OutLabel((view.id(0, -1) % 97) as u32); 2 * view.d],
                );
                let report = lcl_grid::simulate_with(
                    &alg,
                    &grid,
                    &uniform_input(grid.graph()),
                    &ProdIds::sequential(&grid),
                    None,
                    opts,
                );
                let Degraded { outcome, faults } = report.outcome;
                ChaosRun {
                    graph: grid.graph().clone(),
                    output: outcome.output,
                    faults,
                    cost: None,
                }
            }
            Model::Shard => {
                let g = gen::random_tree(n, 3, seed);
                let report = lcl_shard::simulate_sharded_with(
                    &DeltaPlusOne { delta: 3 },
                    &g,
                    &uniform_input(&g),
                    &tree_ids(3),
                    None,
                    1000,
                    2,
                    opts.sharded(SHARDS),
                );
                ChaosRun::sync(g, report.outcome)
            }
            Model::Proc => {
                let job = ProcJob {
                    graph: GraphSpec::RandomTree {
                        n,
                        max_degree: 3,
                        seed,
                    },
                    alg: AlgSpec::GuardedFlood { k: 3 },
                    input: InputSpec::Uniform,
                    ids: tree_ids(3),
                    n_announced: None,
                    max_rounds: 10,
                };
                let report = run_proc_sharded(&job, opts.sharded(SHARDS), proc)?;
                ChaosRun::sync(gen::random_tree(n, 3, seed), report.outcome)
            }
        })
    }
}

/// One chaos run's outcome.
#[derive(Clone, Debug)]
pub struct ChaosRun {
    /// The instance's graph (the grid's graph for PROD).
    pub graph: Graph,
    /// The output labeling; faulted nodes carry placeholder labels.
    pub output: HalfEdgeLabeling<OutLabel>,
    /// The typed fault records.
    pub faults: Vec<NodeFault>,
    /// The model's cost figure, named as the fingerprint prints it:
    /// `rounds` for the tree models, `probes` for VOLUME and LCA.
    cost: Option<(&'static str, u64)>,
}

impl ChaosRun {
    fn sync(graph: Graph, run: Degraded<SyncRun>) -> Self {
        Self {
            graph,
            output: run.outcome.output,
            faults: run.faults,
            cost: Some(("rounds", u64::from(run.outcome.rounds))),
        }
    }

    fn volume(graph: Graph, run: Degraded<VolumeRun>) -> Self {
        Self {
            graph,
            output: run.outcome.output,
            faults: run.faults,
            cost: Some(("probes", run.outcome.total_probes as u64)),
        }
    }

    /// Whether the executor recorded any fault.
    pub fn is_degraded(&self) -> bool {
        !self.faults.is_empty()
    }

    /// The output labels in half-edge order, comma-separated.
    pub fn labeling_fp(&self) -> String {
        (0..self.graph.half_edge_count() as u32)
            .map(|h| self.output.get(HalfEdgeId(h)).0.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The full fingerprint: cost figure, labeling and fault records.
    pub fn fingerprint(&self) -> String {
        let cost = self
            .cost
            .map_or(String::new(), |(name, value)| format!("{name}={value};"));
        let faults = self
            .faults
            .iter()
            .map(|f| format!("{}@{}:{}", f.node, f.round, f.payload))
            .collect::<Vec<_>>()
            .join(";");
        format!("{cost}out={};faults={faults}", self.labeling_fp())
    }
}

#[allow(clippy::type_complexity)] // `impl Trait` closure types cannot be aliased
fn neighbor_probe_alg() -> FnVolumeAlgorithm<
    impl Fn(usize) -> usize,
    impl Fn(&mut ProbeSession<'_>) -> Result<Vec<OutLabel>, ProbeError>,
> {
    FnVolumeAlgorithm::new(
        "chaos-neighbor",
        |_| 2,
        |s| {
            let d = s.queried().degree as usize;
            let n0 = s.probe(0, 0)?;
            Ok(vec![OutLabel((n0.id % 97) as u32); d])
        },
    )
}

/// Shrinks the random plan of `(model, seed)` ([`Model::plan`]) to a
/// locally-minimal plan that still reproduces ([`shrink_plan`]), or
/// `None` when the plan does not reproduce. A plan reproduces when its
/// run degrades, fails (a shard that exhausts its respawns, say), or
/// labels differently from the fault-free run under the same id
/// permutation.
///
/// # Errors
///
/// The fault-free run's error. It does not depend on the plan (a
/// missing `shard-worker` binary, say), and counting it as a
/// reproduction would shrink every plan to nothing.
pub fn shrink(model: Model, seed: u64, proc: &ProcOptions) -> Result<Option<FaultPlan>, ProcError> {
    let original = model.plan(seed);
    let clean = |permute: bool| -> Result<String, ProcError> {
        let mut plan = FaultPlan::new(original.seed());
        if permute {
            plan = plan.with_permuted_ids();
        }
        Ok(model.run(seed, &plan, proc)?.labeling_fp())
    };
    let clean = [clean(false)?, clean(true)?];
    let reproduces = |plan: &FaultPlan| match model.run(seed, plan, proc) {
        Ok(run) => {
            run.is_degraded() || run.labeling_fp() != clean[usize::from(plan.permutes_ids())]
        }
        Err(_) => true,
    };
    Ok(reproduces(&original).then(|| shrink_plan(&original, reproduces)))
}

/// Runs the [`Model::SOAK`] models for seeds `0..plans` under their
/// random plans: plans/s plus degraded-run and fault counts, one row per
/// model. It writes no `BENCH_*.json`: fault-handling throughput is a
/// health metric, not a paper artifact.
pub fn chaos_stage(plans: u64) -> Table {
    let mut table = Table::new(
        "Chaos soak — faulted entrypoints under random plans",
        &["model", "plans", "degraded", "faults", "ms", "plans/s"],
    );
    for model in Model::SOAK {
        let t0 = Instant::now();
        let (mut degraded, mut faults) = (0u64, 0u64);
        for seed in 0..plans {
            let run = model
                .run(seed, &model.plan(seed), &ProcOptions::default())
                .expect("why: only the proc model can fail, and it is no soak model");
            degraded += u64::from(run.is_degraded());
            faults += run.faults.len() as u64;
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        table.row(&[
            model.name().to_string(),
            plans.to_string(),
            degraded.to_string(),
            faults.to_string(),
            format!("{ms:.1}"),
            format!("{:.0}", plans as f64 / (ms / 1e3)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_names_round_trip() {
        for model in Model::ALL {
            assert_eq!(Model::parse(model.name()), Some(model));
        }
        assert_eq!(Model::parse("grid"), None);
    }

    /// The shrink EXPERIMENTS.md documents: seed 3's VOLUME plan (a
    /// probe lie, a crash and an id permutation) shrinks to the lone
    /// crash that changes the output.
    #[test]
    fn volume_seed_3_shrinks_to_its_lone_crash() {
        assert_eq!(Model::Volume.size(3), 17);
        assert_eq!(
            Model::Volume.plan(3).to_text(),
            "plan seed=3 permute-ids=true\nprobe-lie query=14 nth=3\ncrash node=1 round=3\n"
        );
        let shrunk = shrink(Model::Volume, 3, &ProcOptions::default())
            .expect("runs in process")
            .expect("the plan reproduces");
        assert_eq!(
            shrunk.to_text(),
            "plan seed=3 permute-ids=false\ncrash node=1 round=3\n"
        );
    }

    /// A fault-free run that cannot start is the shrinker's error, not
    /// a reproduction that lets every fault go.
    #[test]
    fn a_missing_worker_binary_is_a_typed_error() {
        let proc = ProcOptions {
            worker_bin: Some("/nonexistent/shard-worker".into()),
            ..ProcOptions::default()
        };
        let err = shrink(Model::Proc, 1, &proc).expect_err("no worker, no run");
        assert!(matches!(err, ProcError::WorkerBinMissing { .. }), "{err}");
    }
}

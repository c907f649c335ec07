//! One trait over every model simulator in the suite.
//!
//! The paper compares four query-driven models on the same instances:
//! LOCAL (Definition 2.1), VOLUME (Definition 2.9), its LCA variant, and
//! PROD-LOCAL on oriented grids (Section 6). Each member crate exposes an
//! instrumented `simulate*` entrypoint returning an
//! [`obs::RunReport`](lcl_obs::RunReport); [`Simulation`] abstracts over
//! them so harnesses can drive any model generically — same instance
//! plumbing, same trace handling, different cost semantics.
//!
//! # Examples
//!
//! Driving a radius-2 LOCAL algorithm through the trait:
//!
//! ```
//! use lcl_landscape::simulation::{GraphInstance, LocalSim, Simulation};
//! use lcl_landscape::{graph::gen, local, problems};
//!
//! let g = gen::path(6);
//! let ids = local::IdAssignment::sequential(6);
//! let input = lcl_landscape::lcl::uniform_input(&g);
//! let report = LocalSim::simulate(
//!     &problems::trivial::MaxDegree2Hop,
//!     GraphInstance::new(&g, &input, &ids),
//! )?;
//! assert_eq!(LocalSim::model(), "local");
//! assert!(!report.trace.is_empty());
//! assert_eq!(report.outcome.radius, 2);
//! # Ok::<(), lcl_landscape::LandscapeError>(())
//! ```

use lcl::{HalfEdgeLabeling, InLabel};
use lcl_faults::{Degraded, RunOptions};
use lcl_graph::Graph;
use lcl_grid::{OrientedGrid, ProdIds, ProdLocalAlgorithm, ProdRun};
use lcl_local::{IdAssignment, LocalAlgorithm, LocalRun, SyncAlgorithm, SyncRun};
use lcl_obs::RunReport;
use lcl_volume::{LcaAlgorithm, VolumeAlgorithm, VolumeRun};

use crate::error::LandscapeError;

/// A port-numbered graph instance: the topology, the half-edge input
/// labeling, the identifier assignment, and (optionally) an announced
/// node count that may differ from the true one (the paper's footnote 7).
///
/// Borrowed by [`LocalSim`], [`VolumeSim`], and [`LcaSim`].
#[derive(Clone, Copy)]
pub struct GraphInstance<'a> {
    /// The port-numbered graph.
    pub graph: &'a Graph,
    /// Input labels on half-edges.
    pub input: &'a HalfEdgeLabeling<InLabel>,
    /// Unique identifiers per node.
    pub ids: &'a IdAssignment,
    /// The `n` announced to the algorithm; `None` announces the truth.
    pub n_announced: Option<usize>,
}

impl<'a> GraphInstance<'a> {
    /// An instance that announces the true node count.
    pub fn new(
        graph: &'a Graph,
        input: &'a HalfEdgeLabeling<InLabel>,
        ids: &'a IdAssignment,
    ) -> Self {
        Self {
            graph,
            input,
            ids,
            n_announced: None,
        }
    }

    /// Overrides the announced node count (footnote 7 lying).
    pub fn announcing(mut self, n: usize) -> Self {
        self.n_announced = Some(n);
        self
    }
}

/// An oriented-grid instance for [`ProdLocalSim`]: the grid, the input
/// labeling, and per-dimension coordinate identifiers.
#[derive(Clone, Copy)]
pub struct GridInstance<'a> {
    /// The oriented grid.
    pub grid: &'a OrientedGrid,
    /// Input labels on half-edges.
    pub input: &'a HalfEdgeLabeling<InLabel>,
    /// Per-dimension identifier coordinates.
    pub ids: &'a ProdIds,
    /// The `n` announced to the algorithm; `None` announces the truth.
    pub n_announced: Option<usize>,
}

impl<'a> GridInstance<'a> {
    /// An instance that announces the true node count.
    pub fn new(
        grid: &'a OrientedGrid,
        input: &'a HalfEdgeLabeling<InLabel>,
        ids: &'a ProdIds,
    ) -> Self {
        Self {
            grid,
            input,
            ids,
            n_announced: None,
        }
    }

    /// Overrides the announced node count.
    pub fn announcing(mut self, n: usize) -> Self {
        self.n_announced = Some(n);
        self
    }
}

/// A computational model with an instrumented simulator.
///
/// Implementors are zero-sized model markers ([`LocalSim`], [`VolumeSim`],
/// [`LcaSim`], [`ProdLocalSim`]); the associated types pin down what an
/// algorithm, an instance, and a run outcome look like in that model. All
/// simulators return an [`lcl_obs::RunReport`] whose trace obeys the obs
/// determinism contract: everything except wall-clock time is a pure
/// function of the instance and the algorithm.
pub trait Simulation {
    /// The algorithm interface of the model (a dyn-compatible trait).
    type Algorithm: ?Sized;
    /// What the model runs on (borrows graph/input/identifiers).
    type Instance<'a>;
    /// The model-specific run outcome (labeling plus cost summary).
    type Outcome;

    /// The model's short name — also the first segment of the trace's
    /// root span name.
    fn model() -> &'static str;

    /// Runs `alg` on `instance` under [`RunOptions`]: optional event
    /// capture, optional fault plan, optional budget. The outcome is
    /// always [`Degraded`]-wrapped; a run without a fault plan is clean
    /// (`faults` empty) and bit-identical to the plain simulator.
    ///
    /// # Errors
    ///
    /// LOCAL and PROD-LOCAL simulations are infallible; VOLUME and LCA
    /// runs surface an out-of-contract probe as
    /// [`LandscapeError::Probe`].
    fn simulate_with(
        alg: &Self::Algorithm,
        instance: Self::Instance<'_>,
        opts: RunOptions<'_>,
    ) -> Result<RunReport<Degraded<Self::Outcome>>, LandscapeError>;

    /// Runs `alg` on `instance` with default options, unwrapping the
    /// clean (fault-free) outcome.
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulation::simulate_with`].
    fn simulate(
        alg: &Self::Algorithm,
        instance: Self::Instance<'_>,
    ) -> Result<RunReport<Self::Outcome>, LandscapeError> {
        Ok(Self::simulate_with(alg, instance, RunOptions::new())?.map(|d| d.outcome))
    }
}

/// Routes a synchronous LOCAL run by substrate: sharded execution when
/// the options request it ([`RunOptions::sharded`]), the single-image
/// executor otherwise.
///
/// This is the facade's front door to `lcl_shard` — the same
/// [`GraphInstance`] plumbing the model markers use, with the substrate
/// chosen by the [`RunOptions`] instead of by the call site. The two
/// substrates are bit-identical for every plan without whole-shard
/// losses, so flipping `opts.sharded(m)` on changes *where* the run
/// executes, never *what* it computes.
///
/// ```
/// use lcl_landscape::faults::RunOptions;
/// use lcl_landscape::local::IdAssignment;
/// use lcl_landscape::simulation::{simulate_sync_routed, GraphInstance};
/// use lcl_landscape::{graph::gen, problems};
///
/// let g = gen::path(32);
/// let ids = IdAssignment::sequential(32);
/// let input = problems::cv::orientation_inputs(&g, problems::cv::Orientation::Path);
/// let alg = problems::cv::ColeVishkin;
/// let instance = GraphInstance::new(&g, &input, &ids);
/// let plain = simulate_sync_routed(&alg, instance, 32, 1, RunOptions::new());
/// let sharded = simulate_sync_routed(&alg, instance, 32, 4, RunOptions::new().sharded(4));
/// assert_eq!(plain.outcome, sharded.outcome);
/// ```
pub fn simulate_sync_routed<A>(
    alg: &A,
    instance: GraphInstance<'_>,
    max_rounds: u32,
    threads: usize,
    opts: RunOptions<'_>,
) -> RunReport<Degraded<SyncRun>>
where
    A: SyncAlgorithm + Sync,
    A::State: Send,
    A::Msg: Send,
{
    let ids: Vec<u64> = instance.ids.iter().collect();
    lcl_shard::simulate_sharded_with(
        alg,
        instance.graph,
        instance.input,
        &ids,
        instance.n_announced,
        max_rounds,
        threads,
        opts,
    )
}

/// The LOCAL model (Definition 2.1): radius-`T(n)` views, measured in
/// rounds. Drives [`lcl_local::simulate_with`].
pub struct LocalSim;

impl Simulation for LocalSim {
    type Algorithm = dyn LocalAlgorithm;
    type Instance<'a> = GraphInstance<'a>;
    type Outcome = LocalRun;

    fn model() -> &'static str {
        "local"
    }

    fn simulate_with(
        alg: &Self::Algorithm,
        instance: Self::Instance<'_>,
        opts: RunOptions<'_>,
    ) -> Result<RunReport<Degraded<Self::Outcome>>, LandscapeError> {
        Ok(lcl_local::simulate_with(
            alg,
            instance.graph,
            instance.input,
            instance.ids,
            instance.n_announced,
            opts,
        ))
    }
}

/// The VOLUME model (Definition 2.9): adaptive probes against a budget.
/// Drives [`lcl_volume::simulate_with`].
pub struct VolumeSim;

impl Simulation for VolumeSim {
    type Algorithm = dyn VolumeAlgorithm;
    type Instance<'a> = GraphInstance<'a>;
    type Outcome = VolumeRun;

    fn model() -> &'static str {
        "volume"
    }

    fn simulate_with(
        alg: &Self::Algorithm,
        instance: Self::Instance<'_>,
        opts: RunOptions<'_>,
    ) -> Result<RunReport<Degraded<Self::Outcome>>, LandscapeError> {
        Ok(lcl_volume::simulate_with(
            alg,
            instance.graph,
            instance.input,
            instance.ids,
            instance.n_announced,
            opts,
        )?)
    }
}

/// The LCA variant of VOLUME: identifiers are promised to be `1..=n` and
/// far (non-adjacent) probes are available and counted separately. Drives
/// [`lcl_volume::simulate_lca_with`]. The announced node count is ignored —
/// the LCA promise fixes `n`.
pub struct LcaSim;

impl Simulation for LcaSim {
    type Algorithm = dyn LcaAlgorithm;
    type Instance<'a> = GraphInstance<'a>;
    type Outcome = VolumeRun;

    fn model() -> &'static str {
        "lca"
    }

    fn simulate_with(
        alg: &Self::Algorithm,
        instance: Self::Instance<'_>,
        opts: RunOptions<'_>,
    ) -> Result<RunReport<Degraded<Self::Outcome>>, LandscapeError> {
        Ok(lcl_volume::simulate_lca_with(
            alg,
            instance.graph,
            instance.input,
            instance.ids,
            opts,
        )?)
    }
}

/// The PROD-LOCAL model on oriented grids (Section 6): box views with
/// per-dimension coordinate identifiers. Drives [`lcl_grid::simulate_with`].
pub struct ProdLocalSim;

impl Simulation for ProdLocalSim {
    type Algorithm = dyn ProdLocalAlgorithm;
    type Instance<'a> = GridInstance<'a>;
    type Outcome = ProdRun;

    fn model() -> &'static str {
        "prod-local"
    }

    fn simulate_with(
        alg: &Self::Algorithm,
        instance: Self::Instance<'_>,
        opts: RunOptions<'_>,
    ) -> Result<RunReport<Degraded<Self::Outcome>>, LandscapeError> {
        Ok(lcl_grid::simulate_with(
            alg,
            instance.grid,
            instance.input,
            instance.ids,
            instance.n_announced,
            opts,
        ))
    }
}

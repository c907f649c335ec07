//! Pins every observable of the two synthesizers to constants: the
//! Some/None verdict, `describe()`, `name()`, `radius(n)` at four sizes,
//! and an FNV-1a fold of the output labeling on small (whole-window)
//! instances and on long instances whose windows see only part of the
//! graph. A change to the anchor-and-fill machinery that keeps this test
//! green is output-identical on the corpus: the catalogue's degree-2
//! problems plus a seeded `random_problem` corpus.

use lcl::gen::{random_problem, RandomProblemSpec};
use lcl::LclProblem;
use lcl_classify::{synthesize_cycle, synthesize_path};
use lcl_faults::RunOptions;
use lcl_graph::{gen, Graph};
use lcl_local::{simulate_with, IdAssignment, LocalAlgorithm};

/// FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

const RADIUS_SIZES: [usize; 4] = [8, 64, 1 << 20, 1 << 60];
const CYCLE_SIZES: [usize; 6] = [3, 4, 5, 8, 13, 32];
const PATH_SIZES: [usize; 7] = [1, 2, 3, 4, 7, 16, 40];

/// Every `long_every`-th random seed also runs a long instance; the
/// catalogue problems always do.
const RANDOM_SEEDS: u64 = 40;
const LONG_EVERY: u64 = 8;

/// The smallest fixpoint `n ≥ 16` of `n = 2·radius(n) + 2`: the first
/// size at which no node's window reaches all the way around a cycle or
/// to both ends of a path.
fn long_n(alg: &impl LocalAlgorithm) -> usize {
    let mut n = 16;
    loop {
        let need = 2 * alg.radius(n) as usize + 2;
        if n >= need {
            return n;
        }
        n = need;
    }
}

fn fold_runs(
    h: &mut Fnv,
    alg: &impl LocalAlgorithm,
    graph: fn(usize) -> Graph,
    sizes: &[usize],
    long: bool,
) {
    h.str(alg.name());
    for n in RADIUS_SIZES {
        h.u64(u64::from(alg.radius(n)));
    }
    let long_size = long.then(|| long_n(alg));
    for n in sizes.iter().copied().chain(long_size) {
        let g = graph(n);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::random_polynomial(n, 3, 7 * n as u64 + 1);
        let run = simulate_with(alg, &g, &input, &ids, None, RunOptions::new())
            .outcome
            .outcome;
        h.u64(n as u64);
        for label in run.output.as_slice() {
            h.u64(u64::from(label.0));
        }
    }
}

/// `(verdict, fingerprint)` of `synthesize_cycle`: the verdict is
/// `describe()` or `"none"`.
fn pin_cycle(p: &LclProblem, long: bool) -> (String, u64) {
    let mut h = Fnv::new();
    let verdict = match synthesize_cycle(p).map(|report| report.outcome) {
        Err(e) => format!("error: {e}"),
        Ok(None) => "none".to_string(),
        Ok(Some(alg)) => {
            fold_runs(&mut h, &alg, gen::cycle, &CYCLE_SIZES, long);
            alg.describe()
        }
    };
    h.str(&verdict);
    (verdict, h.0)
}

/// As [`pin_cycle`], for `synthesize_path`.
fn pin_path(p: &LclProblem, long: bool) -> (String, u64) {
    let mut h = Fnv::new();
    let verdict = match synthesize_path(p).map(|report| report.outcome) {
        Err(e) => format!("error: {e}"),
        Ok(None) => "none".to_string(),
        Ok(Some(alg)) => {
            fold_runs(&mut h, &alg, gen::path, &PATH_SIZES, long);
            alg.describe()
        }
    };
    h.str(&verdict);
    (verdict, h.0)
}

/// Phase labels that advance along the cycle and reset every 3 to 5
/// steps: closed walks of lengths `{3,4,5}⁺`, so `K₀ = 3` and the
/// synthesized algorithm sparsifies once.
fn spaced_marking() -> LclProblem {
    LclProblem::parse(
        "max-degree: 2\noutputs: A0 A1 A2 A3 A4 B0 B1 B2 B3 B4\n\
         nodes:\nA0 B1\nA1 B2\nA2 B3\nA2 B0\nA3 B4\nA3 B0\nA4 B0\n\
         edges:\nA0 B0\nA1 B1\nA2 B2\nA3 B3\nA4 B4\n",
    )
    .expect("well-formed")
}

fn catalogue() -> Vec<LclProblem> {
    vec![
        lcl_problems::k_coloring(3, 2),
        lcl_problems::k_coloring(4, 2),
        lcl_problems::two_coloring(2),
        lcl_problems::oriented_three_coloring(),
        lcl_problems::sinkless_orientation(2),
        LclProblem::parse("max-degree: 2\nnodes:\nX* Y*\nedges:\nX X\nX Y\nY Y\n")
            .expect("well-formed"),
        lcl_problems::anti_matching(2),
        lcl_problems::mis_problem(2),
        lcl_problems::maximal_matching_problem(2),
        spaced_marking(),
    ]
}

fn random(seed: u64) -> LclProblem {
    random_problem(
        RandomProblemSpec {
            max_degree: 2,
            inputs: 1,
            outputs: 3 + (seed % 3) as usize,
            density_percent: 55,
        },
        seed,
    )
}

/// `describe()` of each catalogue problem's cycle algorithm, or `"none"`.
const CYCLE_VERDICTS: [&str; 10] = [
    "anchor-and-fill via flexible state out0 (K₀ = 2, 0 sparsification level(s))",
    "anchor-and-fill via flexible state out0 (K₀ = 2, 0 sparsification level(s))",
    "none",
    "anchor-and-fill via flexible state out0 (K₀ = 2, 0 sparsification level(s))",
    "constant tiling (x = out1, y = out0)",
    "constant tiling (x = out0, y = out0)",
    "constant tiling (x = out1, y = out0)",
    "anchor-and-fill via flexible state out0 (K₀ = 2, 0 sparsification level(s))",
    "anchor-and-fill via flexible state out0 (K₀ = 4, 1 sparsification level(s))",
    "anchor-and-fill via flexible state out0 (K₀ = 3, 1 sparsification level(s))",
];

/// Cycle fingerprints: the catalogue, in order, then random seeds `0..40`.
const CYCLE_FINGERPRINTS: [u64; 50] = [
    0x8bdc30a728fd9877,
    0x8bdc30a728fd9877,
    0xca0251c1ce08e1f7,
    0x8bdc30a728fd9877,
    0xf2b4efd8e4c852cc,
    0x66b6a754cbd04a78,
    0xf2b4efd8e4c852cc,
    0x7e69f5e1321b21d7,
    0x246f4da6774797cb,
    0xf39205ec7302b784,
    0x66b6a754cbd04a78,
    0x68ac13267f9535a8,
    0x4850476844581448,
    0x4850476844581448,
    0xca0251c1ce08e1f7,
    0x632285c453ba399c,
    0x4850476844581448,
    0x3fbd5e7d4807f64c,
    0xca0251c1ce08e1f7,
    0x4850476844581448,
    0x173f6c5c24aabdb0,
    0xaa7f16e24ec135fc,
    0x632285c453ba399c,
    0xca0251c1ce08e1f7,
    0x68ac13267f9535a8,
    0x4850476844581448,
    0x9341d6b648530d44,
    0x632285c453ba399c,
    0x3fbd5e7d4807f64c,
    0xbd7012ff7c2ce59c,
    0xca0251c1ce08e1f7,
    0x68ac13267f9535a8,
    0x632285c453ba399c,
    0xca0251c1ce08e1f7,
    0x66b6a754cbd04a78,
    0x632285c453ba399c,
    0x632285c453ba399c,
    0xca0251c1ce08e1f7,
    0xca0251c1ce08e1f7,
    0xca0251c1ce08e1f7,
    0x68ac13267f9535a8,
    0xca0251c1ce08e1f7,
    0xc61b78e9b41ca618,
    0x4850476844581448,
    0x4850476844581448,
    0x4850476844581448,
    0x68ac13267f9535a8,
    0xaa7f16e24ec135fc,
    0xca0251c1ce08e1f7,
    0xca0251c1ce08e1f7,
];

/// `describe()` of each catalogue problem's path algorithm, or `"none"`.
const PATH_VERDICTS: [&str; 10] = [
    "path anchor-and-fill via state out0 (K₀ = 2, boundary margin 4)",
    "path anchor-and-fill via state out0 (K₀ = 2, boundary margin 4)",
    "none",
    "path anchor-and-fill via state out0 (K₀ = 2, boundary margin 4)",
    "none",
    "path anchor-and-fill via state out0 (K₀ = 2, boundary margin 4)",
    "path anchor-and-fill via state out0 (K₀ = 2, boundary margin 4)",
    "path anchor-and-fill via state out0 (K₀ = 2, boundary margin 4)",
    "path anchor-and-fill via state out0 (K₀ = 4, boundary margin 4)",
    "none",
];

/// Path fingerprints: the catalogue, in order, then random seeds `0..40`.
const PATH_FINGERPRINTS: [u64; 50] = [
    0x74284a2a0d23af9d,
    0x74284a2a0d23af9d,
    0xca0251c1ce08e1f7,
    0x74284a2a0d23af9d,
    0xca0251c1ce08e1f7,
    0x975d65ba2df96a19,
    0xeeba883c8db8f1fe,
    0x15710ea2855821f4,
    0x36a2b457a052ae5b,
    0xca0251c1ce08e1f7,
    0x975d65ba2df96a19,
    0xca0251c1ce08e1f7,
    0x5b327a2658db4f7d,
    0xca0251c1ce08e1f7,
    0xca0251c1ce08e1f7,
    0xce96928474a2652,
    0xca0251c1ce08e1f7,
    0x5495127f4e8907dd,
    0xca0251c1ce08e1f7,
    0x5b327a2658db4f7d,
    0x8771c998b54be3d2,
    0x9201dda99171dcc8,
    0xca0251c1ce08e1f7,
    0xca0251c1ce08e1f7,
    0xca0251c1ce08e1f7,
    0xca0251c1ce08e1f7,
    0xca0251c1ce08e1f7,
    0x1a739061be372c12,
    0xca0251c1ce08e1f7,
    0x25d0e3e35536f604,
    0xca0251c1ce08e1f7,
    0x5b327a2658db4f7d,
    0xce96928474a2652,
    0xca0251c1ce08e1f7,
    0xbf4968defd260699,
    0x89d4e849486dc692,
    0xb5dcb53c7ea51232,
    0xca0251c1ce08e1f7,
    0xca0251c1ce08e1f7,
    0xca0251c1ce08e1f7,
    0xb326f3700c9bcb92,
    0xca0251c1ce08e1f7,
    0xacdd7ce89690a22e,
    0xca0251c1ce08e1f7,
    0xc4b3fa52f798af1d,
    0x5260e5de4df176f2,
    0xca0251c1ce08e1f7,
    0x752266badc3fafd,
    0xca0251c1ce08e1f7,
    0xca0251c1ce08e1f7,
];

/// Runs `pin` over the catalogue (always with a long instance) and the
/// random corpus (a long instance every [`LONG_EVERY`] seeds) and checks
/// the verdicts and fingerprints against the pinned tables.
fn check(pin: fn(&LclProblem, bool) -> (String, u64), verdicts: &[&str], fingerprints: &[u64]) {
    let mut got_verdicts = Vec::new();
    let mut got_fingerprints = Vec::new();
    for p in &catalogue() {
        let (verdict, fp) = pin(p, true);
        got_verdicts.push(verdict);
        got_fingerprints.push(fp);
    }
    for seed in 0..RANDOM_SEEDS {
        got_fingerprints.push(pin(&random(seed), seed % LONG_EVERY == 0).1);
    }
    assert!(
        got_verdicts == verdicts && got_fingerprints == fingerprints,
        "synthesis outputs changed; the current values are\n\
         verdicts: {got_verdicts:#?}\nfingerprints: {got_fingerprints:#x?}"
    );
}

#[test]
fn cycle_synthesis_matches_the_pinned_outputs() {
    check(pin_cycle, &CYCLE_VERDICTS, &CYCLE_FINGERPRINTS);
}

#[test]
fn path_synthesis_matches_the_pinned_outputs() {
    check(pin_path, &PATH_VERDICTS, &PATH_FINGERPRINTS);
}

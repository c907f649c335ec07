//! VOLUME-model harness algorithms for the Figure 1 bottom-right panel.
//!
//! * [`ConstProbe`] — `O(1)` probes (compare degrees with one neighbor).
//! * [`CvProbeColoring`] — 3-coloring of oriented cycles with
//!   `O(log* n)` probes: walk the successor chain far enough to evaluate
//!   Cole–Vishkin plus the reduction sweeps offline. This is exactly the
//!   "seeing wide, not far" phenomenon the VOLUME model isolates.
//! * [`TwoColorProbes`] — 2-coloring of paths with `Θ(n)` probes (walk to
//!   an endpoint).

use lcl::OutLabel;
use lcl_problems::cv::{cv_iteration_count, cv_step};
use lcl_volume::{ProbeError, ProbeSession, VolumeAlgorithm};

/// A 1-probe algorithm: is my degree at least my port-0 neighbor's?
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConstProbe;

impl VolumeAlgorithm for ConstProbe {
    fn probe_budget(&self, _n: usize) -> usize {
        1
    }

    fn answer(&self, session: &mut ProbeSession<'_>) -> Result<Vec<OutLabel>, ProbeError> {
        let me = session.queried().clone();
        let neighbor = session.probe(0, 0)?;
        Ok(vec![
            OutLabel(u32::from(me.degree >= neighbor.degree));
            me.degree as usize
        ])
    }

    fn name(&self) -> &str {
        "const-probe"
    }
}

/// 3-coloring oriented cycles (port 0 = predecessor, port 1 = successor)
/// with `O(log* n)` probes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CvProbeColoring;

impl CvProbeColoring {
    /// Probes needed on `n`-node cycles.
    pub fn probes(n: usize) -> usize {
        let id_bits = 3 * (usize::BITS - n.leading_zeros()).max(1);
        cv_iteration_count(id_bits) as usize + 7
    }
}

impl VolumeAlgorithm for CvProbeColoring {
    fn probe_budget(&self, n: usize) -> usize {
        Self::probes(n)
    }

    fn answer(&self, session: &mut ProbeSession<'_>) -> Result<Vec<OutLabel>, ProbeError> {
        let n = session.n();
        let k = cv_iteration_count(3 * (usize::BITS - n.leading_zeros()).max(1)) as usize;
        let degree = session.queried().degree as usize;
        // Walk right k + 4, left 3 (cycles: no endpoints to worry about).
        let mut right_ids = Vec::with_capacity(k + 4);
        let mut j = 0usize; // transcript index of the rightmost node
        for _ in 0..(k + 4).min(n - 1) {
            let info = session.probe(j, 1)?;
            j = session.discovered_count() - 1;
            right_ids.push(info.id);
        }
        if right_ids.len() == n - 1 {
            // The whole cycle is visible: compute the coloring cyclically.
            let mut colors: Vec<u64> = std::iter::once(session.queried().id)
                .chain(right_ids)
                .collect();
            for _ in 0..k {
                let next: Vec<u64> = (0..n)
                    .map(|pos| cv_step(colors[pos], colors[(pos + 1) % n]))
                    .collect();
                colors = next;
            }
            for target in [5u64, 4, 3] {
                let next: Vec<u64> = (0..n)
                    .map(|pos| {
                        if colors[pos] == target {
                            let l = colors[(pos + n - 1) % n];
                            let r = colors[(pos + 1) % n];
                            (0..3).find(|c| l != *c && r != *c).expect("free color")
                        } else {
                            colors[pos]
                        }
                    })
                    .collect();
                colors = next;
            }
            return Ok(vec![OutLabel(colors[0] as u32); degree]);
        }
        let mut left_ids = Vec::with_capacity(3);
        let mut jl = 0usize;
        for _ in 0..3.min(n.saturating_sub(1).saturating_sub(right_ids.len())) {
            let info = session.probe(jl, 0)?;
            jl = session.discovered_count() - 1;
            left_ids.push(info.id);
        }

        let offset = left_ids.len();
        let mut ids: Vec<u64> = left_ids.into_iter().rev().collect();
        ids.push(session.queried().id);
        ids.extend(right_ids);
        let len = ids.len();

        // Offline Cole–Vishkin (every position has a successor except the
        // last, whose color is never trusted that deep).
        let mut colors = ids;
        for _ in 0..k {
            let mut next = colors.clone();
            for pos in 0..len - 1 {
                next[pos] = cv_step(colors[pos], colors[pos + 1]);
            }
            colors = next;
        }
        // Reduction sweeps 5, 4, 3 (interior positions only; margins
        // keep position `offset` trustworthy).
        for target in [5u64, 4, 3] {
            let mut next = colors.clone();
            for pos in 1..len.saturating_sub(1) {
                if colors[pos] == target {
                    next[pos] = (0..3)
                        .find(|c| colors[pos - 1] != *c && colors[pos + 1] != *c)
                        .expect("two neighbors block at most two colors");
                }
            }
            // Boundary positions with one visible neighbor.
            if colors[0] == target && len > 1 {
                next[0] = (0..3).find(|c| colors[1] != *c).expect("free color");
            }
            colors = next;
        }
        Ok(vec![OutLabel(colors[offset] as u32); degree])
    }

    fn name(&self) -> &str {
        "cv-probe-coloring"
    }
}

/// 2-coloring paths by walking to the left endpoint: `Θ(n)` probes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TwoColorProbes;

impl VolumeAlgorithm for TwoColorProbes {
    fn probe_budget(&self, n: usize) -> usize {
        n
    }

    fn answer(&self, session: &mut ProbeSession<'_>) -> Result<Vec<OutLabel>, ProbeError> {
        let degree = session.queried().degree as usize;
        // Walk to BOTH endpoints, tracking the arrival port so the walk
        // never turns around; color by the parity of the distance to the
        // endpoint with the smaller identifier — a canonical anchor every
        // node agrees on.
        let me = session.queried().clone();
        if me.degree == 1 {
            // An endpoint: walk once to learn the other endpoint's id.
            let (other_end, dist) = walk_to_end(session, 0, 0)?;
            let color = if me.id < other_end { 0 } else { dist % 2 };
            return Ok(vec![OutLabel(color); degree]);
        }
        let (end_a, dist_a) = walk_to_end(session, 0, 0)?;
        let (end_b, dist_b) = walk_to_end(session, 0, 1)?;
        let color = if end_a < end_b {
            dist_a % 2
        } else {
            dist_b % 2
        };
        Ok(vec![OutLabel(color); degree])
    }

    fn name(&self) -> &str {
        "two-color-probes"
    }
}

/// Walks from discovered node `start` through `first_port`, continuing
/// straight (never back through the arrival port) until a degree-1 node;
/// returns its id and the number of steps taken.
fn walk_to_end(
    session: &mut ProbeSession<'_>,
    start: usize,
    first_port: u8,
) -> Result<(u64, u32), ProbeError> {
    let mut j = start;
    let mut port = first_port;
    let mut steps = 0u32;
    loop {
        let (info, arrival) = session.probe_with_arrival(j, port)?;
        j = session.discovered_count() - 1;
        steps += 1;
        if info.degree == 1 {
            return Ok((info.id, steps));
        }
        // Continue through the other port (degree-2 interior node).
        port = 1 - arrival;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_faults::RunOptions;
    use lcl_graph::gen;
    use lcl_local::IdAssignment;
    use lcl_problems::{k_coloring, two_coloring};
    use lcl_volume::simulate_with;

    #[test]
    fn const_probe_uses_one_probe() {
        let g = gen::cycle(10);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(10);
        let run = simulate_with(&ConstProbe, &g, &input, &ids, None, RunOptions::new())
            .expect("in budget")
            .outcome
            .outcome;
        assert_eq!(run.max_probes, 1);
    }

    #[test]
    fn cv_probes_color_cycles() {
        let problem = k_coloring(3, 2);
        for n in [16usize, 100, 500] {
            let g = gen::cycle(n);
            let input = lcl::uniform_input(&g);
            let ids = IdAssignment::random_polynomial(n, 3, n as u64);
            let run = simulate_with(&CvProbeColoring, &g, &input, &ids, None, RunOptions::new())
                .expect("in budget")
                .outcome
                .outcome;
            let violations = lcl::verify(&problem, &g, &input, &run.output);
            assert!(violations.is_empty(), "n={n}: {violations:?}");
            assert!(run.max_probes <= CvProbeColoring::probes(n));
            assert!(run.max_probes <= 16, "n={n}: {}", run.max_probes);
        }
    }

    #[test]
    fn two_color_probes_color_paths() {
        let problem = two_coloring(2);
        for n in [2usize, 9, 40] {
            let g = gen::path(n);
            let input = lcl::uniform_input(&g);
            let ids = IdAssignment::sequential(n);
            let run = simulate_with(&TwoColorProbes, &g, &input, &ids, None, RunOptions::new())
                .expect("in budget")
                .outcome
                .outcome;
            let violations = lcl::verify(&problem, &g, &input, &run.output);
            assert!(violations.is_empty(), "n={n}: {violations:?}");
            // The right end of the path walks all the way: Θ(n).
            assert!(run.max_probes >= n - 1, "n={n}: {}", run.max_probes);
        }
    }
}

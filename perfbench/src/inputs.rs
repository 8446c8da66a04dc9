//! Seeded input generation. Every workload's inputs are a pure function of
//! `--seed`; the program under test only ever sees the generated inputs.

use nestwx_core::{AllocPolicy, MappingKind, Scenario, Strategy};
use nestwx_grid::{Domain, NestSpec};
use nestwx_netsim::Machine;
use nestwx_serve::{Request, RequestBody, ScenarioParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The machines configurations cycle through, in order: BG/L 256–1024 and
/// BG/P 1024–8192. Cycling (rather than drawing) keeps every run's machine
/// mix identical, so seeds differ only in the regions of interest.
pub const MACHINES: [&str; 7] = [
    "bgl:256", "bgl:512", "bgl:1024", "bgp:1024", "bgp:2048", "bgp:4096", "bgp:8192",
];

/// Every this many configurations, one carries a second-level nest.
const SECOND_LEVEL_EVERY: usize = 4;

/// Sibling nest sizes in grid points: the paper's range.
const MIN_POINTS: f64 = (178 * 202) as f64;
const MAX_POINTS: f64 = (394 * 418) as f64;

/// Position `k` of the size ladder: a golden-ratio sequence, which covers
/// [0, 1) evenly over any run of consecutive positions.
fn ladder(k: usize) -> f64 {
    (k as f64 * 0.618_033_988_749_895).fract()
}

/// The sibling nests of configuration `i`, as `nestwx_bench::random_nests`
/// draws them (aspect ratio 0.5–1.5, refinement 3, any position) except
/// that sibling `j` takes its size from ladder position `4i + j` rather
/// than from the seed. The work of configuration `i` is then nearly the
/// same for every seed, so a median over a short run does not follow the
/// sizes a seed happened to draw.
fn sibling_nests(rng: &mut StdRng, i: usize, siblings: usize, parent: &Domain) -> Vec<NestSpec> {
    (0..siblings)
        .map(|j| {
            let points = MIN_POINTS + (MAX_POINTS - MIN_POINTS) * ladder(4 * i + j);
            let aspect: f64 = rng.gen_range(0.5..=1.5);
            let nx = ((points * aspect).sqrt().round() as u32).max(8);
            let ny = ((points / aspect).sqrt().round() as u32).max(8);
            let ox = rng.gen_range(0..=parent.nx.saturating_sub(nx.div_ceil(3)).max(1));
            let oy = rng.gen_range(0..=parent.ny.saturating_sub(ny.div_ceil(3)).max(1));
            NestSpec::new(nx, ny, 3, (ox, oy))
        })
        .collect()
}

/// An RNG for one named input stream of a seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Builds a machine from its spec token exactly as the service does.
pub fn machine(spec: &str) -> Machine {
    nestwx_serve::parse_machine(spec).expect("benchmark machine specs are valid")
}

/// One region configuration: a machine, the paper's Pacific parent and
/// 2–4 sibling nests in the paper's ranges, every fourth one with a
/// second-level nest inside the first sibling.
#[derive(Debug, Clone)]
pub struct Config {
    pub spec: &'static str,
    pub machine: Machine,
    pub parent: Domain,
    pub nests: Vec<NestSpec>,
}

impl Config {
    pub fn scenario(&self) -> Scenario {
        Scenario::new(
            self.machine.clone(),
            self.parent.clone(),
            self.nests.clone(),
        )
    }

    /// The scenario with explicit knobs.
    pub fn scenario_with(
        &self,
        strategy: Strategy,
        alloc: AllocPolicy,
        mapping: MappingKind,
    ) -> Scenario {
        Scenario {
            strategy,
            alloc,
            mapping,
            ..self.scenario()
        }
    }

    /// The `plan` request line for this configuration (no id, so repeated
    /// lines are byte-identical and eligible for the raw-line hot cache).
    pub fn plan_line(&self, mapping: MappingKind) -> String {
        Request::new(
            None,
            RequestBody::Plan(ScenarioParams {
                machine: self.spec.to_string(),
                parent: self.parent.clone(),
                nests: self.nests.clone(),
                strategy: Strategy::Concurrent,
                alloc: AllocPolicy::HuffmanSplitTree,
                mapping,
                io: None,
            }),
        )
        .to_json_line()
    }
}

/// Generates configuration `i`. The machine (`i mod 7`), the sibling
/// count (`2 + i mod 3`), whether a second-level nest is added
/// (`i mod 4 = 3`) and the nests' sizes cycle with `i`, so every run has the
/// same mix of them; the seed draws the nests' shapes and positions. `class`/`classes`
/// partition the space: the first nest's x offset is congruent to `class`
/// modulo `classes`, so configurations of different classes differ.
pub fn config(rng: &mut StdRng, i: usize, class: u32, classes: u32) -> Config {
    let spec = MACHINES[i % MACHINES.len()];
    let parent = nestwx_bench::pacific_parent();
    let siblings = 2 + i % 3;
    let mut nests = sibling_nests(rng, i, siblings, &parent);
    let first = &mut nests[0];
    let max_ox = parent.nx - first.nx.div_ceil(first.refine_ratio);
    let ox = first.offset.0 - first.offset.0 % classes + class;
    first.offset.0 = if ox <= max_ox { ox } else { ox - classes };
    if i % SECOND_LEVEL_EVERY == SECOND_LEVEL_EVERY - 1 {
        let host = nests[0].clone();
        let scale = 0.5 + 0.5 * ladder(i);
        let nx = (host.nx as f64 * scale).round() as u32;
        let ny = (host.ny as f64 * scale).round() as u32;
        let ox = rng.gen_range(0..=host.nx - nx.div_ceil(3));
        let oy = rng.gen_range(0..=host.ny - ny.div_ceil(3));
        nests.push(NestSpec::child_of(0, nx, ny, 3, (ox, oy)));
    }
    Config {
        spec,
        machine: machine(spec),
        parent,
        nests,
    }
}

/// `n` configurations cycling through [`MACHINES`], all distinct.
pub fn configs(seed: u64, stream: u64, n: usize, class: u32, classes: u32) -> Vec<Config> {
    let mut rng = rng(seed, stream);
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let c = config(&mut rng, out.len(), class, classes);
        if seen.insert(c.scenario().canonical_string()) {
            out.push(c);
        }
    }
    out
}

/// The fleet scenario: a 96 × 84 parent at 24 km with three nests of fixed
/// size (40 × 40 and 30 × 30 at ratio 3, 32 × 32 at ratio 2) whose
/// positions come from the seed. Fixing the sizes fixes the work per
/// iteration and its split over the workers, so seeds move the regions of
/// interest, not the cost.
pub fn fleet_scenario(seed: u64) -> (Domain, Vec<NestSpec>) {
    const NESTS: [(u32, u32, u32); 3] = [(40, 40, 3), (32, 32, 2), (30, 30, 3)];
    let mut rng = rng(seed, 7);
    let parent = Domain::parent(96, 84, 24.0);
    let nests = NESTS
        .iter()
        .map(|&(nx, ny, r)| {
            let ox = rng.gen_range(1..=parent.nx - 1 - nx.div_ceil(r));
            let oy = rng.gen_range(1..=parent.ny - 1 - ny.div_ceil(r));
            NestSpec::new(nx, ny, r, (ox, oy))
        })
        .collect();
    (parent, nests)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_valid_distinct_and_seeded() {
        let a = configs(1, 1, 40, 0, 2);
        let b = configs(1, 1, 40, 0, 2);
        let c = configs(1, 1, 40, 1, 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.nests, y.nests);
        }
        for x in a.iter().chain(&c) {
            nestwx_grid::NestedConfig::new(x.parent.clone(), x.nests.clone()).expect("valid");
        }
        for x in &a {
            assert!(c.iter().all(|y| y.nests != x.nests));
        }
        let (parent, nests) = fleet_scenario(3);
        nestwx_grid::NestedConfig::new(parent, nests).expect("valid fleet scenario");
    }
}

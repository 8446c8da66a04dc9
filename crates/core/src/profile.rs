//! Profiling runs and predictor fitting.
//!
//! §3.1: "We conducted experiments on a fixed number of processors for a
//! small set (size = 13) of domains with different domain sizes and
//! different aspect ratios." Here the "experiments" are runs of the machine
//! simulator; on a real deployment they would be short WRF runs.
//!
//! The paper profiles each machine once and the scheduler then only queries
//! the fitted model. [`fit_predictor`] does the same within a process: the
//! fit is a pure function of `(machine, seed)`, so the profiling runs happen
//! at most once per process for each pair (up to 64 pairs) and later calls
//! return a copy of the stored predictor.

use nestwx_grid::{Domain, DomainFeatures, NestedConfig, ProcGrid};
use nestwx_netsim::{ExecStrategy, IoMode, Machine, Simulation};
use nestwx_predict::{generate_candidates, select_basis_covering, BasisDomain, ExecTimePredictor};
use nestwx_topo::Mapping;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Seed of the on-demand predictor fit. `Planner::plan` and the planning
/// service both fit with it, so a served plan is byte-identical to one
/// computed directly.
pub const PROFILE_SEED: u64 = 0xBEEF;

/// Number of processors the profiling runs use (fixed, per the paper — only
/// *relative* times matter for allocation).
pub const PROFILE_RANKS: u32 = 64;

/// Measures the per-iteration integration time of a single `nx × ny` domain
/// on `ranks` processors of `machine`'s type — the simulator stand-in for a
/// profiling WRF run. The domain is stepped as a stand-alone simulation
/// (no nests, no I/O).
pub fn measure_domain_time(machine: &Machine, nx: u32, ny: u32, ranks: u32) -> f64 {
    let shape = machine.shape;
    assert!(ranks <= shape.slots());
    let grid = ProcGrid::near_square(ranks);
    let cfg = NestedConfig::new(Domain::parent(nx, ny, 8.0), vec![]).expect("valid domain");
    let mapping = Mapping::oblivious(shape, ranks).expect("ranks fit");
    let sim = Simulation::new(
        machine,
        grid,
        &cfg,
        ExecStrategy::Sequential,
        mapping,
        IoMode::None,
        None,
    )
    .expect("valid simulation");
    sim.run(3).per_iteration()
}

/// Runs the 13 basis profiling experiments: candidate generation, basis
/// selection, and one measurement per basis domain.
pub fn profile_basis(machine: &Machine, seed: u64) -> Vec<(DomainFeatures, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Paper's candidate ranges: 94×124 .. 415×445, aspect 0.5–1.5.
    let candidates = generate_candidates(&mut rng, 400, 94 * 124, 415 * 445);
    let basis: Vec<BasisDomain> = select_basis_covering(
        &candidates,
        13,
        (0.5, 1.5),
        ((94 * 124) as f64, (415 * 445) as f64),
    );
    basis
        .iter()
        .map(|b| {
            let t = measure_domain_time(machine, b.nx, b.ny, PROFILE_RANKS.min(machine.ranks()));
            (b.features(), t)
        })
        .collect()
}

/// Most `(machine, seed)` pairs the fit memo stores. Once it is full, new
/// pairs are fitted on every call and not stored, so nothing is evicted.
const MEMO_CAP: usize = 64;

/// Fitted predictors keyed by the machine's `Debug` rendering and the seed.
/// `Debug` prints every field, each `f64` exactly, so two calibrations that
/// share a `name` get separate entries.
type Memo = BTreeMap<(String, u64), ExecTimePredictor>;

static MEMO: Mutex<Memo> = Mutex::new(BTreeMap::new());

/// The memo only ever gains a whole fitted predictor per entry, so a guard
/// left by a panicking holder still guards a valid map.
fn memo() -> MutexGuard<'static, Memo> {
    MEMO.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Profiles and fits the execution-time predictor in one call, running the
/// profiling simulations at most once per process for each
/// `(machine, seed)` pair.
pub fn fit_predictor(machine: &Machine, seed: u64) -> ExecTimePredictor {
    let key = (format!("{machine:?}"), seed);
    if let Some(p) = memo().get(&key) {
        return p.clone();
    }
    // Fit without the lock: callers racing on a new key may each fit, and
    // their results are bitwise equal.
    let fitted = ExecTimePredictor::fit(&profile_basis(machine, seed)).expect("basis triangulates");
    let mut memo = memo();
    if memo.len() < MEMO_CAP {
        memo.entry(key).or_insert_with(|| fitted.clone());
    }
    fitted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_monotone_in_domain_size() {
        let m = Machine::bgl(64);
        let small = measure_domain_time(&m, 100, 120, 64);
        let large = measure_domain_time(&m, 400, 420, 64);
        assert!(large > small);
    }

    #[test]
    fn predictor_fits_and_predicts_within_paper_bound() {
        // End-to-end §3.1 check: fit on 13 simulated profiling runs, then
        // predict held-out domains with < 6 % error against fresh
        // simulator measurements.
        let m = Machine::bgl(64);
        let p = fit_predictor(&m, 42);
        let tests = [(215u32, 260u32), (230, 243), (310, 215), (260, 360)];
        for (nx, ny) in tests {
            let truth = measure_domain_time(&m, nx, ny, 64);
            let pred = p.predict(&DomainFeatures::from_dims(nx, ny)).unwrap();
            let err = (pred - truth).abs() / truth;
            assert!(err < 0.06, "{nx}×{ny}: error {:.2}% ≥ 6%", err * 100.0);
        }
    }

    #[test]
    fn profiling_is_deterministic() {
        let m = Machine::bgl(64);
        let a = profile_basis(&m, 7);
        let b = profile_basis(&m, 7);
        assert_eq!(a.len(), 13);
        for ((fa, ta), (fb, tb)) in a.iter().zip(&b) {
            assert_eq!(fa.points, fb.points);
            assert_eq!(ta, tb);
        }
    }

    // The memo is process-wide and shared with every other test in this
    // binary, so the tests below only assert what holds in any order.

    /// Every fitted field, exactly.
    fn bits(p: &ExecTimePredictor) -> String {
        format!("{p:?}")
    }

    fn fresh_fit(m: &Machine, seed: u64) -> ExecTimePredictor {
        ExecTimePredictor::fit(&profile_basis(m, seed)).expect("basis triangulates")
    }

    #[test]
    fn memoised_fit_leaves_plan_bytes_unchanged() {
        use crate::Planner;
        use nestwx_grid::{Domain, NestSpec};
        let parent = Domain::parent(286, 307, 24.0);
        let nests = [
            NestSpec::new(259, 229, 3, (10, 12)),
            NestSpec::new(181, 220, 3, (150, 40)),
        ];
        for m in [Machine::bgl(256), Machine::bgp(8192)] {
            let direct = Planner::new(m.clone())
                .with_predictor(fresh_fit(&m, PROFILE_SEED))
                .plan(&parent, &nests)
                .expect("plans");
            // `ExecutionPlan` has no `Serialize`; its `Debug` rendering
            // prints every field, each `f64` exactly.
            let want = format!("{direct:?}");
            for _ in 0..2 {
                let plan = Planner::new(m.clone())
                    .plan(&parent, &nests)
                    .expect("plans");
                assert_eq!(format!("{plan:?}"), want);
            }
        }
    }

    #[test]
    fn memo_keys_on_the_whole_machine_and_the_seed() {
        let m = Machine::bgl(32);
        let mut slower = m.clone();
        slower.compute.time_per_point *= 2.0;
        assert_eq!(m.name, slower.name);
        let probe = DomainFeatures::from_dims(230, 243);
        let a = fit_predictor(&m, PROFILE_SEED).predict(&probe).unwrap();
        let b = fit_predictor(&slower, PROFILE_SEED)
            .predict(&probe)
            .unwrap();
        assert_ne!(a, b, "same name, different calibration");
        let (s7, s42) = (fit_predictor(&m, 7), fit_predictor(&m, 42));
        assert_eq!(bits(&s7), bits(&fresh_fit(&m, 7)));
        assert_eq!(bits(&s42), bits(&fresh_fit(&m, 42)));
        assert_ne!(bits(&s7), bits(&s42));
    }

    #[test]
    fn memo_is_bounded_and_still_fits_past_the_cap() {
        let base = Machine::bgl(16);
        let mut last = None;
        for i in 0..70 {
            let mut m = base.clone();
            m.compute.fixed_per_step = 1.0e-3 + i as f64 * 1.0e-6;
            last = Some((fit_predictor(&m, 1), m));
        }
        assert!(memo().len() <= MEMO_CAP);
        let (p, m) = last.expect("70 fits");
        assert_eq!(bits(&p), bits(&fresh_fit(&m, 1)));
    }

    #[test]
    fn racing_first_callers_get_equal_predictors() {
        let mut m = Machine::bgl(16);
        m.compute.jitter = 0.05;
        let gate = std::sync::Barrier::new(4);
        let fits: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        bits(&fit_predictor(&m, 3))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        assert!(fits.iter().all(|f| *f == fits[0]));
        assert_eq!(fits[0], bits(&fresh_fit(&m, 3)));
    }
}

//! Planning paths: cold `Planner::plan` and `compare_strategies` as
//! `nestwx plan`/`compare` run them (one thread), then the sweep engine
//! cold into a fresh disk cache and warm from it.

use crate::inputs::{Config, MACHINES};
use crate::mirror::{self, SweepRow};
use crate::report::{Outcome, Phase};
use crate::stats::{Screened, StealClock};
use crate::trace::Tracer;
use nestwx_core::{compare_strategies, fnv1a64, AllocPolicy, MappingKind, Scenario, Strategy};
use nestwx_netsim::IoMode;
use nestwx_serve::{render_plan, DiskCache};
use nestwx_sweep::{run_sweep, SweepOptions, SweepReport, SweepSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Parent iterations each `compare_strategies` call simulates.
pub const COMPARE_ITERS: u32 = 1;
/// Parent iterations each swept scenario simulates.
pub const SWEEP_ITERS: u32 = 1;
/// Configurations swept by the traced run: one per machine.
pub const SWEEP_CONFIGS: usize = MACHINES.len();
/// Warm sweeps timed after each cold sweep.
const WARM_PASSES: usize = 10;

/// One sweep spec per machine over the swept configurations × {sequential,
/// concurrent} × {huffman, naive} × {partition, multilevel}.
pub fn sweep_specs(configs: &[Config]) -> Vec<SweepSpec> {
    let mut by_machine: BTreeMap<&str, Vec<&Config>> = BTreeMap::new();
    for c in configs {
        by_machine.entry(c.spec).or_default().push(c);
    }
    by_machine
        .values()
        .map(|group| SweepSpec {
            machines: vec![group[0].machine.clone()],
            parents: vec![group[0].parent.clone()],
            nest_sets: group.iter().map(|c| c.nests.clone()).collect(),
            strategies: vec![Strategy::Sequential, Strategy::Concurrent],
            allocs: vec![
                AllocPolicy::HuffmanSplitTree,
                AllocPolicy::NaiveProportional,
            ],
            mappings: vec![MappingKind::Partition, MappingKind::MultiLevel],
            io: vec![(IoMode::None, None)],
            iterations: SWEEP_ITERS,
        })
        .collect()
}

fn plan_digest(sc: &Scenario, plan: &nestwx_core::ExecutionPlan) -> String {
    let json = render_plan(sc, plan).expect("plans render");
    format!("{:016x}", fnv1a64(json.as_bytes()))
}

/// Runs every spec into `dir`, returning the reports and the wall time.
fn sweep_all(specs: &[SweepSpec], dir: &Path, jobs: usize) -> (Vec<SweepReport>, f64) {
    let opts = SweepOptions {
        cache_dir: Some(dir.to_path_buf()),
        iterations: None,
        jobs: Some(jobs),
    };
    let t0 = Instant::now();
    let reports = specs
        .iter()
        .map(|s| run_sweep(s, &opts).expect("sweep cache directory opens"))
        .collect();
    (reports, t0.elapsed().as_secs_f64())
}

fn unique(reports: &[SweepReport]) -> usize {
    reports.iter().map(|r| r.unique).sum()
}

/// Counts one sweep's scenarios as attempted and its errors as failed.
fn account_sweep(out: &mut Outcome, reports: &[SweepReport]) {
    for r in reports {
        out.attempt("sweep", r.unique);
        out.fail("sweep_error", r.errors);
    }
}

/// Checks a warm sweep against the cold sweep it replays, and the cold
/// rows against fresh-plan digests.
fn check_sweeps(
    out: &mut Outcome,
    cold: &[SweepReport],
    warm: &[SweepReport],
    fresh: &BTreeMap<String, String>,
) {
    for (c, w) in cold.iter().zip(warm) {
        out.check(w.computed == 0, "warm sweep recomputed scenarios");
        out.check(w.disk_hits == w.unique, "warm sweep missed the disk cache");
        out.check(
            w.plans_digest == c.plans_digest,
            "warm plans_digest differs from cold",
        );
        for row in &c.scenarios {
            if let Some(want) = fresh.get(&row.key) {
                out.check(
                    &row.plan_digest == want,
                    "swept plan bytes differ from a fresh plan",
                );
            }
        }
    }
}

/// Fresh-plan digests of planned configurations under the default knobs
/// (concurrent, huffman, partition), keyed by the sweep key.
fn fresh_digests(configs: &[Config], plans: &BTreeMap<usize, String>) -> BTreeMap<String, String> {
    plans
        .iter()
        .map(|(&i, d)| {
            (
                nestwx_serve::keys::sweep_key(&configs[i].scenario(), SWEEP_ITERS),
                d.clone(),
            )
        })
        .collect()
}

/// Timed results of the planning paths.
#[derive(Default)]
pub struct PlanTimes {
    pub plan_ms: Vec<f64>,
    pub compare_ms: Vec<f64>,
    /// Seconds per scenario of every cold and every warm sweep of one
    /// spec, by machine, screened by the CPU time the host stole during
    /// the unit.
    pub cold: BTreeMap<&'static str, Screened>,
    pub warm: BTreeMap<&'static str, Screened>,
}

/// Scenarios per second of a sweep giving every machine the same number of
/// scenarios, each machine at its screened median seconds per scenario.
/// Medians over many small sweeps keep a slow spell of the host from
/// deciding it.
pub fn scen_per_s(by_machine: &BTreeMap<&'static str, Screened>) -> f64 {
    let per_scenario: f64 = by_machine.values().map(Screened::median).sum();
    by_machine.len() as f64 / per_scenario
}

/// The planning paths as units of work the scheduler interleaves: one cold
/// plan, one comparison, or one spec swept cold into a fresh disk cache
/// and then warm from it.
pub struct PlanLoad<'a> {
    phase: &'a PlanPhase,
    next_spec: usize,
    next_plan: usize,
    next_compare: usize,
    /// Plan digests of the swept configurations from their cold plans.
    digests: BTreeMap<usize, String>,
    /// Cold sweep rows of the default knobs, checked against `digests`.
    swept_rows: Vec<(String, String)>,
    pub times: PlanTimes,
}

impl<'a> PlanLoad<'a> {
    pub fn new(phase: &'a PlanPhase) -> PlanLoad<'a> {
        PlanLoad {
            phase,
            next_spec: 0,
            next_plan: 0,
            next_compare: 0,
            digests: BTreeMap::new(),
            swept_rows: Vec::new(),
            times: PlanTimes::default(),
        }
    }

    /// One cold `Planner::plan` of the next configuration.
    pub fn plan_unit(&mut self, out: &mut Outcome) {
        let i = self.next_plan;
        self.next_plan += 1;
        let c = &self.phase.configs[i % self.phase.configs.len()];
        let sc = c.scenario();
        let t0 = Instant::now();
        let res = sc.planner().plan(&c.parent, &c.nests);
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        out.attempt("plan", 1);
        match res {
            Ok(plan) => {
                self.times.plan_ms.push(dt);
                if i < self.phase.configs.len() {
                    self.digests.insert(i, plan_digest(&sc, &plan));
                }
            }
            Err(_) => {
                out.fail("plan_error", 1);
                self.times.plan_ms.push(f64::INFINITY);
            }
        }
    }

    /// One `compare_strategies` of the next configuration.
    pub fn compare_unit(&mut self, out: &mut Outcome) {
        let c = &self.phase.configs[self.next_compare % self.phase.configs.len()];
        self.next_compare += 1;
        let planner = c.scenario().planner();
        let t0 = Instant::now();
        let res = compare_strategies(&planner, &c.parent, &c.nests, COMPARE_ITERS);
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        out.attempt("compare", 1);
        match res {
            Ok(_) => self.times.compare_ms.push(dt),
            Err(_) => {
                out.fail("compare_error", 1);
                self.times.compare_ms.push(f64::INFINITY);
            }
        }
    }

    /// The next configuration (machines in turn) × the sweep's knobs,
    /// swept cold into a fresh directory, then [`WARM_PASSES`] times warm.
    pub fn sweep_unit(&mut self, out: &mut Outcome) {
        let configs = &self.phase.configs;
        let i = self.next_spec % configs.len();
        self.next_spec += 1;
        let specs = sweep_specs(&configs[i..=i]);
        let dir = self.phase.fresh_dir(0);
        let steal = StealClock::start();
        let (cold, cold_s) = sweep_all(&specs, &dir, self.phase.jobs);
        let n = unique(&cold) as f64;
        self.times
            .cold
            .entry(configs[i].spec)
            .or_default()
            .push(cold_s / n, steal.rate());
        account_sweep(out, &cold);
        // A warm sweep takes well under the steal counter's 10 ms tick, so
        // the warm passes are screened together.
        let steal = StealClock::start();
        let mut warm_s = Vec::with_capacity(WARM_PASSES);
        for _ in 0..WARM_PASSES {
            let (warm, s) = sweep_all(&specs, &dir, self.phase.jobs);
            warm_s.push(s / n);
            account_sweep(out, &warm);
            check_sweeps(out, &cold, &warm, &BTreeMap::new());
        }
        let rate = steal.rate();
        let warm = self.times.warm.entry(configs[i].spec).or_default();
        for s in warm_s {
            warm.push(s, rate);
        }
        let _ = std::fs::remove_dir_all(&dir);
        let default_knobs = |o: &&nestwx_sweep::ScenarioOutcome| {
            (o.strategy.as_str(), o.alloc.as_str(), o.mapping.as_str())
                == ("concurrent", "huffman", "partition")
        };
        for o in cold.iter().flat_map(|r| &r.scenarios).filter(default_knobs) {
            self.swept_rows.push((o.key.clone(), o.plan_digest.clone()));
        }
    }

    /// Whether every machine has been swept at least once.
    pub fn has_round(&self) -> bool {
        self.times.cold.len() == MACHINES.len()
    }

    /// Checks the swept default-knob plans against the cold plans' bytes.
    pub fn finish(self, out: &mut Outcome) -> PlanTimes {
        let fresh = fresh_digests(&self.phase.configs, &self.digests);
        for (key, digest) in &self.swept_rows {
            out.check(
                fresh.contains_key(key),
                "a swept configuration was never planned cold",
            );
            out.check(
                fresh.get(key) == Some(digest),
                "swept plan bytes differ from a fresh plan",
            );
        }
        self.times
    }
}

pub struct PlanPhase {
    pub configs: Vec<Config>,
    pub work_dir: PathBuf,
    pub jobs: usize,
}

impl PlanPhase {
    /// An empty disk-cache directory; `slot` keeps concurrent users apart.
    fn fresh_dir(&self, slot: usize) -> PathBuf {
        let dir = self.work_dir.join(format!("sweep-{slot}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("benchmark work directory is writable");
        dir
    }

    /// The traced run: `configs` plans and compares, then a cold and a
    /// warm sweep of every spec (one thread throughout), each item three
    /// times — through the program's entry point, through the
    /// decomposition untraced, and traced — in rotating order so drift and
    /// warm-up fall on all three alike. Every decomposed result must equal
    /// the program's.
    pub fn traced(&self, configs: usize, tr: &mut Tracer, out: &mut Outcome) -> Phase {
        let cs = &self.configs[..configs.max(SWEEP_CONFIGS)];
        let swept = &self.configs[..SWEEP_CONFIGS];
        let specs = sweep_specs(swept);
        let mut quiet = Tracer::disabled();
        let mut secs = [0.0f64; 3];
        let mut ratios = Vec::new();
        let first_span = tr.spans().len();

        let mut digests = BTreeMap::new();
        for (k, c) in cs.iter().enumerate() {
            let sc = c.scenario();
            let mut want = None;
            let mut got = Vec::new();
            let mut item = [0.0f64; 3];
            let mut item_first = 0;
            for v in rotation(k) {
                if v == 2 {
                    item_first = tr.spans().len();
                }
                let t0 = Instant::now();
                match v {
                    0 => {
                        let plan = sc.planner().plan(&c.parent, &c.nests);
                        let cmp =
                            compare_strategies(&sc.planner(), &c.parent, &c.nests, COMPARE_ITERS);
                        want = Some((plan, cmp.map(|r| (r.default_run, r.planned_run))));
                    }
                    _ => {
                        let t = if v == 1 { &mut quiet } else { &mut *tr };
                        t.set_request(k as u64);
                        let plan = t.span("op.plan", |t| mirror::plan(t, &sc, None));
                        let cmp = t.span("op.compare", |t| mirror::compare(t, &sc, COMPARE_ITERS));
                        got.push((plan, cmp));
                    }
                }
                item[v] = t0.elapsed().as_secs_f64();
                secs[v] += item[v];
            }
            ratios.push(tr.layers_since(item_first) / item[0]);
            let (plan, cmp) = want.expect("the program ran");
            out.attempt("plan", 1);
            out.attempt("compare", 1);
            out.fail("plan_error", plan.is_err() as usize);
            out.fail("compare_error", cmp.is_err() as usize);
            let rendered = plan
                .ok()
                .map(|p| render_plan(&sc, &p).expect("plans render"));
            let reports = cmp.ok();
            for (plan, cmp) in got {
                let plan = plan
                    .ok()
                    .map(|p| render_plan(&sc, &p).expect("plans render"));
                out.check(plan == rendered, "traced plan differs from Planner::plan");
                out.check(
                    cmp.ok() == reports,
                    "traced compare differs from compare_strategies",
                );
            }
            if let (true, Some(json)) = (k < SWEEP_CONFIGS, &rendered) {
                digests.insert(k, format!("{:016x}", fnv1a64(json.as_bytes())));
            }
        }

        let fresh = fresh_digests(swept, &digests);
        for (k, spec) in specs.iter().enumerate() {
            let mut want = Vec::new();
            let mut got = Vec::new();
            let mut item = [0.0f64; 3];
            let mut item_first = 0;
            for v in rotation(k) {
                let dir = self.fresh_dir(v);
                if v == 2 {
                    item_first = tr.spans().len();
                }
                let t0 = Instant::now();
                match v {
                    0 => {
                        let (cold, _) = sweep_all(std::slice::from_ref(spec), &dir, 1);
                        let (warm, _) = sweep_all(std::slice::from_ref(spec), &dir, 1);
                        item[v] = t0.elapsed().as_secs_f64();
                        account_sweep(out, &cold);
                        account_sweep(out, &warm);
                        check_sweeps(out, &cold, &warm, &fresh);
                        for r in cold.iter().chain(&warm) {
                            tr.count("sweep.computed", r.computed as u64);
                            tr.count("sweep.disk_hits", r.disk_hits as u64);
                            want.extend(r.scenarios.iter().map(|o| SweepRow {
                                key: o.key.clone(),
                                plan_digest: o.plan_digest.clone(),
                                s_per_iter: o.planned_s_per_iter,
                                from_disk: o.from_disk,
                            }));
                        }
                    }
                    _ => {
                        let t = if v == 1 { &mut quiet } else { &mut *tr };
                        let rows = mirror_sweep(t, spec, &dir);
                        item[v] = t0.elapsed().as_secs_f64();
                        got.push(rows);
                    }
                }
                secs[v] += item[v];
                let _ = std::fs::remove_dir_all(&dir);
            }
            ratios.push(tr.layers_since(item_first) / item[0]);
            for rows in got {
                out.check(
                    rows.as_ref() == Ok(&want),
                    "traced sweep differs from run_sweep",
                );
            }
        }
        Phase {
            name: "plan-sweep",
            untraced_s: secs[1],
            traced_s: secs[2],
            layers_s: tr.layers_since(first_span),
            reference_s: secs[0],
            item_ratios: ratios,
        }
    }
}

/// The order in which item `k` runs the program (0), the untraced
/// decomposition (1) and the traced one (2).
pub fn rotation(k: usize) -> [usize; 3] {
    [k % 3, (k + 1) % 3, (k + 2) % 3]
}

/// A cold then a warm sweep of `spec` through the traced per-scenario step.
fn mirror_sweep(tr: &mut Tracer, spec: &SweepSpec, dir: &Path) -> Result<Vec<SweepRow>, String> {
    let disk = DiskCache::open(dir).map_err(|e| e.to_string())?;
    let scenarios = spec.expand().scenarios;
    let mut rows = Vec::with_capacity(2 * scenarios.len());
    for _warm in 0..2 {
        for (k, sc) in scenarios.iter().enumerate() {
            tr.set_request(k as u64);
            rows.push(tr.span("op.sweep", |tr| {
                mirror::sweep_scenario(tr, sc, SWEEP_ITERS, &disk)
            })?);
        }
    }
    Ok(rows)
}

pub fn secs(s: f64) -> std::time::Duration {
    std::time::Duration::from_secs_f64(s.max(0.0))
}

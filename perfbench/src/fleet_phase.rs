//! The miniwrf model in process (`run_iterations`, the reference) and as a
//! socket fleet of two single-threaded workers (`execute_in_process`) on
//! the same seeded scenario.

use crate::mirror;
use crate::report::{Outcome, Phase};
use crate::stats::{Screened, StealClock};
use crate::trace::Tracer;
use nestwx_fleet::{build_model, execute_in_process, FleetConfig, FleetRun};
use nestwx_grid::{Domain, NestSpec};
use nestwx_miniwrf::{run_iterations, PhaseTimings, SimReport, ThreadStrategy};
use std::time::{Duration, Instant};

/// Rank count recorded in the reports.
const RANKS: u64 = 64;
/// Parent iterations per timed run: short runs, so that the median over
/// many of them is not decided by a slow spell of the host.
pub const ITERS: u32 = 100;
/// Rounds of the traced run.
const TRACE_ROUNDS: usize = 9;

pub struct FleetPhase {
    pub parent: Domain,
    pub nests: Vec<NestSpec>,
    pub workers: usize,
}

/// Timed results: iterations per second of every repetition, screened by
/// the CPU time the host stole during each run.
#[derive(Default)]
pub struct FleetTimes {
    pub miniwrf_ips: Screened,
    pub fleet_ips: Screened,
}

impl FleetPhase {
    fn config(&self) -> FleetConfig {
        FleetConfig {
            workers: self.workers,
            threads: 1,
            connect_timeout: Duration::from_secs(10),
            frame_timeout: Duration::from_secs(30),
        }
    }

    /// The in-process reference: wall seconds, phase timings and report.
    pub fn in_process(&self, iters: u32) -> (f64, PhaseTimings, String) {
        let mut model = build_model(&self.parent, &self.nests);
        let t0 = Instant::now();
        let timings = run_iterations(&mut model, iters, 1, &ThreadStrategy::Sequential);
        let dt = t0.elapsed().as_secs_f64();
        (dt, timings, SimReport::from_model(&model, RANKS).to_json())
    }

    fn fleet(&self, iters: u32, out: &mut Outcome) -> Option<(f64, FleetRun)> {
        out.attempt("fleet", 1);
        let t0 = Instant::now();
        let res = execute_in_process(
            &self.parent,
            &self.nests,
            iters as u64,
            RANKS,
            &[],
            &self.config(),
        );
        let dt = t0.elapsed().as_secs_f64();
        match res {
            Ok(run) => Some((dt, run)),
            Err(_) => {
                out.fail("fleet_error", 1);
                None
            }
        }
    }

    /// One repetition: [`ITERS`] iterations in process, then as a fleet.
    /// Both reports must equal `reference` byte for byte.
    pub fn unit(&self, reference: &str, t: &mut FleetTimes, out: &mut Outcome) {
        out.attempt("miniwrf", 1);
        let steal = StealClock::start();
        let (dt, _, report) = self.in_process(ITERS);
        t.miniwrf_ips.push(ITERS as f64 / dt, steal.rate());
        out.check(
            report == reference,
            "in-process report is not deterministic",
        );
        let steal = StealClock::start();
        match self.fleet(ITERS, out) {
            Some((dt, run)) => {
                t.fleet_ips.push(ITERS as f64 / dt, steal.rate());
                out.check(
                    run.report.to_json() == reference,
                    "fleet report differs from in-process",
                );
            }
            None => t.fleet_ips.push(0.0, steal.rate()),
        }
    }

    /// The traced run: one fleet run of `iters` iterations (for its socket
    /// counts), then [`TRACE_ROUNDS`] rounds, each running a third of
    /// `iters` in process (the program), call by call untraced, and call by
    /// call traced, in rotating order. The call-by-call runs push every halo
    /// through the frame encoding and must reproduce the in-process report.
    pub fn traced(
        &self,
        iters: u32,
        tr: &mut Tracer,
        out: &mut Outcome,
    ) -> (Phase, PhaseSplit, Option<FleetRun>) {
        let round_iters = (iters / 3).max(1);
        let (_, _, round_reference) = self.in_process(round_iters);
        let (_, _, reference) = self.in_process(iters);
        let run = self.fleet(iters, out).map(|(_, run)| run);
        if let Some(run) = &run {
            out.check(
                run.report.to_json() == reference,
                "fleet report differs from in-process",
            );
            let co = &run.summary.coordinator;
            tr.count("fleet.frames_in", co.frames_in);
            tr.count("fleet.bytes_in", co.bytes_in);
            tr.count("fleet.bytes_out", co.bytes_out);
        }
        let mut quiet = Tracer::disabled();
        let mut secs = [0.0f64; 3];
        let mut split = PhaseSplit::default();
        let mut miniwrf_s = 0.0;
        let mut ratios = Vec::new();
        for round in 0..TRACE_ROUNDS {
            let mut item = [0.0f64; 2];
            for v in crate::plan_phase::rotation(round) {
                if v == 0 {
                    out.attempt("miniwrf", 1);
                    let (dt, timings, report) = self.in_process(round_iters);
                    out.check(
                        report == round_reference,
                        "in-process report is not deterministic",
                    );
                    secs[0] += dt;
                    item[0] = dt;
                    split.iterations += timings.iterations as f64;
                    split.parent_s += timings.parent.as_secs_f64();
                    split.siblings_s += timings.siblings.as_secs_f64();
                    continue;
                }
                let t = if v == 1 { &mut quiet } else { &mut *tr };
                let first_span = t.spans().len();
                let mut model = build_model(&self.parent, &self.nests);
                let t0 = Instant::now();
                for i in 0..round_iters {
                    t.set_request(i as u64);
                    t.span("op.iteration", |t| mirror::miniwrf_iteration(t, &mut model));
                }
                secs[v] += t0.elapsed().as_secs_f64();
                let report = SimReport::from_model(&model, RANKS).to_json();
                out.check(
                    report == round_reference,
                    "traced iteration differs from run_iterations",
                );
                // Frame encoding is fleet work the in-process run does not
                // do, so only the miniwrf layer reconciles with it.
                let round_s = t.self_time_since(first_span, |s| s.layer() == "miniwrf");
                if v == 2 {
                    miniwrf_s += round_s;
                    item[1] = round_s;
                }
            }
            ratios.push(item[1] / item[0]);
        }
        let phase = Phase {
            name: "fleet",
            untraced_s: secs[1],
            traced_s: secs[2],
            layers_s: miniwrf_s,
            reference_s: secs[0],
            item_ratios: ratios,
        };
        (phase, split, run)
    }
}

/// In-process phase timings summed over the traced rounds.
#[derive(Default)]
pub struct PhaseSplit {
    pub iterations: f64,
    pub parent_s: f64,
    pub siblings_s: f64,
}

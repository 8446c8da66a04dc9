//! The nestwx benchmark: one command runs a named workload from a seed and
//! prints every metric with its unit, checking the program's outputs.
//!
//! ```text
//! perfbench --workload plan-sweep|serve-mixed|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! A workload spends its time budget on its own user path — planning
//! (plan, compare, sweep), the planning service, or the miniwrf fleet — and
//! runs each other path only as a fixed-size probe, so that every run
//! reports every end-to-end metric. `--trace 0` measures the end-to-end
//! metrics untraced; `--trace 1` runs fixed-size passes twice through
//! traced decompositions of the same calls and reports the per-layer
//! metrics. The last line of standard output is the JSON result. See
//! `README.md` beside this crate for the workloads and metrics.

mod fleet_phase;
mod inputs;
mod mirror;
mod plan_phase;
mod report;
mod serve_phase;
mod stats;
mod trace;

use fleet_phase::FleetPhase;
use plan_phase::PlanPhase;
use report::{Metrics, Outcome, Phase};
use stats::{median, summarize, Screened};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Configurations generated for the planning paths.
const CONFIG_POOL: usize = 1024;
/// Times the set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 11;
/// Largest share by which the traced layer self times may differ from the
/// untraced time they reconcile with.
const RECONCILE_BOUND: f64 = 0.25;
/// Bytes by which a fleet worker's Done frame may differ between runs.
const BYTES_IN_SLACK_PER_WORKER: u64 = 64;
/// Threads, jobs, connections and workers are capped at this many lanes.
const MAX_LANES: usize = 2;

/// The units of work a run is made of.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Unit {
    Plan,
    Compare,
    Sweep,
    Serve,
    Fleet,
}

const UNITS: [Unit; 5] = [
    Unit::Plan,
    Unit::Compare,
    Unit::Sweep,
    Unit::Serve,
    Unit::Fleet,
];

/// Seconds of closed-loop load per serve unit.
const SERVE_BURST_S: f64 = 0.1;

/// How often a unit runs in a workload whose own path it is not: a fixed
/// probe of about 0.4–4 s, enough for a median, spread evenly over the run.
/// Planning units take the configurations in turn, so every machine gets
/// the same share: 21 plans, 21 comparisons and 7 sweeps each (an odd
/// sweep count, so that each per-machine sweep median is a sample, not the
/// lower of two).
fn probe_count(u: Unit) -> usize {
    match u {
        Unit::Plan => 21 * inputs::MACHINES.len(),
        Unit::Compare => 21 * inputs::MACHINES.len(),
        Unit::Sweep => 7 * inputs::MACHINES.len(),
        // 4 s of load.
        Unit::Serve => 40,
        // 3000 parent iterations in process and as a fleet.
        Unit::Fleet => 30,
    }
}

#[derive(Clone, Copy)]
struct Workload {
    name: &'static str,
    /// The units of the workload's own path; they share its time equally.
    own: &'static [Unit],
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "plan-sweep",
        own: &[Unit::Plan, Unit::Compare, Unit::Sweep],
    },
    Workload {
        name: "serve-mixed",
        own: &[Unit::Serve],
    },
    Workload {
        name: "fleet",
        own: &[Unit::Fleet],
    },
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or(format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let get = |k: &str| map.get(k).ok_or(format!("missing --{k}"));
    let name = get("workload")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload '{name}'"))?;
    let seed = get("seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = get("seconds")?.parse().map_err(|_| "bad --seconds")?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace '{other}'")),
    };
    if map
        .keys()
        .any(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err("unknown flag".into());
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Thread, job, worker and connection counts, checked against the cores.
struct Lanes {
    nproc: usize,
    lanes: usize,
    fleet_workers: usize,
}

impl Lanes {
    fn detect() -> Lanes {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Lanes {
            nproc,
            lanes: nproc.clamp(1, MAX_LANES),
            fleet_workers: 2,
        }
    }

    /// Prints every count used and flags any path whose busy threads can
    /// exceed the core count.
    fn report(&self) {
        let l = self.lanes;
        // (path, threads spawned, threads that can be busy at once)
        let rows = [
            ("plan/compare", 1, 1),
            ("sweep", l, l),
            // Closed loop: at most one request in flight per connection,
            // plus the reader, which spins before it parks.
            ("serve", l + 1 + l, l + 1),
            // The coordinator's parent step and the workers' nest solves
            // alternate, so two threads are busy at most.
            ("fleet", 1 + self.fleet_workers, 2),
        ];
        println!(
            "lanes: nproc={} sweep_jobs={l} serve_workers={l} serve_readers=1 serve_connections={l} fleet_workers={} (1 thread each)",
            self.nproc, self.fleet_workers
        );
        for (path, spawned, busy) in rows {
            let flag = if busy > self.nproc {
                "  OVERSUBSCRIBED"
            } else {
                ""
            };
            println!(
                "  {path}: threads={spawned} busy_max={busy} nproc={}{flag}",
                self.nproc
            );
        }
    }
}

/// The inputs set-up builds, beside the warm server it starts.
struct Setup {
    plan: PlanPhase,
    hot: Vec<String>,
    fleet: FleetPhase,
}

/// Fitted predictors per machine, for checking cold serve responses.
type Predictors = BTreeMap<&'static str, nestwx_predict::ExecTimePredictor>;

/// Generates the inputs, creates the work directory, starts and warms the
/// server and builds the fleet model.
fn setup(args: &Args, lanes: &Lanes, work_dir: &PathBuf) -> (Setup, serve_phase::Warm) {
    let configs = inputs::configs(args.seed, 1, CONFIG_POOL, 0, 1);
    let hot = serve_phase::hot_lines(args.seed, lanes.lanes);
    std::fs::create_dir_all(work_dir).expect("benchmark work directory is writable");
    let warm = serve_phase::start(serve_phase::server_config(lanes.lanes, true), &hot)
        .expect("server starts");
    let (parent, nests) = inputs::fleet_scenario(args.seed);
    let _ = nestwx_fleet::build_model(&parent, &nests);
    let s = Setup {
        plan: PlanPhase {
            configs,
            work_dir: work_dir.clone(),
            jobs: lanes.lanes,
        },
        hot,
        fleet: FleetPhase {
            parent,
            nests,
            workers: lanes.fleet_workers,
        },
    };
    (s, warm)
}

fn print_summary(name: &str, unit: &str, xs: &[f64]) {
    let s = summarize(xs);
    println!(
        "  {name}: n={} p50={:.4}{unit} tail=p{}={:.4}{unit}",
        s.n, s.p50, s.tail_pct, s.tail
    );
}

fn end_to_end(
    args: &Args,
    lanes: &Lanes,
    s: &Setup,
    warm: serve_phase::Warm,
    preds: &Predictors,
    setup_s: f64,
    out: &mut Outcome,
) -> Metrics {
    let (_, _, reference) = s.fleet.in_process(fleet_phase::ITERS);
    let mut plan = plan_phase::PlanLoad::new(&s.plan);
    let mut serve = serve_phase::Load::new(warm, args.seed, lanes.lanes);
    let mut fleet = fleet_phase::FleetTimes::default();

    // The own path's units run in short slices, each picked by how far its
    // equal share of the own time spent so far runs ahead of the time it
    // has had. Probe k of a unit with n probes runs once (k + 1/2)/n of the
    // run has passed. Every metric thus samples the whole run.
    let own = args.workload.own;
    let probes: Vec<(usize, usize)> = (0..UNITS.len())
        .filter(|&k| !own.contains(&UNITS[k]))
        .map(|k| (k, probe_count(UNITS[k])))
        .collect();
    let mut probes_run = vec![0usize; probes.len()];
    let mut used = [0.0f64; 5];
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let done = elapsed >= args.seconds;
        let probe = (0..probes.len()).find(|&i| {
            let (run, (_, n)) = (probes_run[i], probes[i]);
            run < n && (done || (run as f64 + 0.5) / n as f64 * args.seconds <= elapsed)
        });
        let pick = if let Some(i) = probe {
            probes_run[i] += 1;
            Some(probes[i].0)
        } else if !done {
            let own_spent: f64 = own.iter().map(|u| used[*u as usize]).sum();
            let fair = own_spent / own.len() as f64;
            own.iter()
                .map(|u| *u as usize)
                .max_by(|&a, &b| (fair - used[a]).total_cmp(&(fair - used[b])))
        } else {
            // Past the deadline: run once more any own unit that has no
            // complete sample yet (a sweep of every machine).
            let has_sample = |u: Unit| match u {
                Unit::Plan => !plan.times.plan_ms.is_empty(),
                Unit::Compare => !plan.times.compare_ms.is_empty(),
                Unit::Sweep => plan.has_round(),
                Unit::Serve => serve.bursts() > 0,
                Unit::Fleet => !fleet.fleet_ips.is_empty(),
            };
            own.iter().find(|u| !has_sample(**u)).map(|u| *u as usize)
        };
        let Some(k) = pick else { break };
        let t0 = Instant::now();
        match UNITS[k] {
            Unit::Plan => plan.plan_unit(out),
            Unit::Compare => plan.compare_unit(out),
            Unit::Sweep => plan.sweep_unit(out),
            Unit::Serve => serve.burst(&s.hot, SERVE_BURST_S),
            Unit::Fleet => s.fleet.unit(&reference, &mut fleet, out),
        }
        used[k] += t0.elapsed().as_secs_f64();
    }
    println!(
        "time per unit (s): {}",
        UNITS
            .iter()
            .zip(used)
            .map(|(u, t)| format!("{u:?}={t:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let plan = plan.finish(out);
    let (_, serve) = serve.finish(s.hot.len(), preds, out);
    let (miniwrf_ms, fleet_ms) = (
        1e3 / fleet.miniwrf_ips.median(),
        1e3 / fleet.fleet_ips.median(),
    );
    println!(
        "fleet per parent iteration: in process {miniwrf_ms:.4} ms, fleet {fleet_ms:.4} ms, fleet extra {:.4} ms ({:.2}x the in-process compute)",
        fleet_ms - miniwrf_ms,
        (fleet_ms - miniwrf_ms) / miniwrf_ms
    );

    // The tails swing with the host's scheduling far beyond any bound at
    // this run length, so they are printed as diagnostics, not metrics.
    println!(
        "samples (diagnostic tail = highest percentile with >= {} samples beyond it):",
        stats::TAIL_MIN_BEYOND
    );
    print_summary("plan_ms", "ms", &plan.plan_ms);
    print_summary("compare_ms", "ms", &plan.compare_ms);
    print_summary("serve_hit_us", "us", &serve.hit_us);
    print_summary("serve_miss_us", "us", &serve.miss_us);
    println!(
        "  sweep specs={}  serve bursts={}  fleet reps={}  serve cache hits={} misses={}",
        plan.cold.values().map(Screened::len).sum::<usize>(),
        serve.burst_rps.len(),
        fleet.fleet_ips.len(),
        serve.cache_hits,
        serve.cache_misses
    );
    let kept = |s: &Screened| format!("{}/{}", s.kept().len(), s.len());
    let kept_by_machine = |m: &BTreeMap<&str, Screened>| {
        let (k, n) = m
            .values()
            .fold((0, 0), |(k, n), s| (k + s.kept().len(), n + s.len()));
        format!("{k}/{n}")
    };
    println!(
        "units kept after screening for stolen CPU (kept/all): sweep cold {} warm {}  serve bursts {} (hit {} miss {})  fleet {} in-process {}",
        kept_by_machine(&plan.cold),
        kept_by_machine(&plan.warm),
        kept(&serve.burst_rps),
        kept(&serve.hit_p50),
        kept(&serve.miss_p50),
        kept(&fleet.fleet_ips),
        kept(&fleet.miniwrf_ips)
    );

    let mut m = Metrics(Vec::new());
    m.push("plan_ms_p50", median(&plan.plan_ms), "ms");
    m.push("compare_ms_p50", median(&plan.compare_ms), "ms");
    m.push(
        "sweep_cold_scen_per_s",
        plan_phase::scen_per_s(&plan.cold),
        "1/s",
    );
    m.push(
        "sweep_warm_scen_per_s",
        plan_phase::scen_per_s(&plan.warm),
        "1/s",
    );
    m.push("serve_rps", serve.burst_rps.median(), "1/s");
    m.push("serve_hit_us_p50", serve.hit_p50.median(), "us");
    m.push("serve_miss_us_p50", serve.miss_p50.median(), "us");
    m.push("fleet_iters_per_s", fleet.fleet_ips.median(), "1/s");
    m.push("miniwrf_iters_per_s", fleet.miniwrf_ips.median(), "1/s");
    m.push("setup_s", setup_s, "s");
    m.push("peak_rss_mb", stats::peak_rss_mb(), "MB");
    m
}

/// Fixed sizes of the traced passes.
struct TracedSizes {
    configs: usize,
    serve_rounds: usize,
    fleet_iters: u32,
}

/// Base sizes, doubled on the workload's own path.
fn traced_sizes(w: &Workload) -> TracedSizes {
    let scale = |u: Unit| if w.own.contains(&u) { 2 } else { 1 };
    TracedSizes {
        configs: 7 * scale(Unit::Plan),
        serve_rounds: 10 * scale(Unit::Serve),
        fleet_iters: 300 * scale(Unit::Fleet) as u32,
    }
}

/// One traced pass over all three paths.
struct TracedPass {
    tracer: Tracer,
    server_spans: Vec<serve_phase::ServerSpan>,
    phases: Vec<Phase>,
    serve: serve_phase::ServeTimes,
    timings: fleet_phase::PhaseSplit,
    fleet: Option<nestwx_fleet::FleetRun>,
}

fn traced_pass(
    args: &Args,
    lanes: &Lanes,
    s: &Setup,
    preds: &Predictors,
    out: &mut Outcome,
) -> TracedPass {
    let sizes = traced_sizes(&args.workload);
    let mut tracer = Tracer::new();
    let mut server_spans = Vec::new();
    let plan = s.plan.traced(sizes.configs, &mut tracer, out);
    let (serve_phase, serve) = serve_phase::traced(
        &s.hot,
        args.seed,
        lanes.lanes,
        lanes.lanes,
        sizes.serve_rounds,
        preds,
        &mut tracer,
        &mut server_spans,
        out,
    );
    tracer.count("serve.cache_hits", serve.cache_hits);
    tracer.count("serve.cache_misses", serve.cache_misses);
    let (fleet_phase, timings, fleet) = s.fleet.traced(sizes.fleet_iters, &mut tracer, out);
    TracedPass {
        tracer,
        server_spans,
        phases: vec![plan, serve_phase, fleet_phase],
        serve,
        timings,
        fleet,
    }
}

fn p50_of(tr: &Tracer, name: &str, scale: f64) -> f64 {
    let d = tr.durations(name);
    if d.is_empty() {
        f64::NAN
    } else {
        median(&d) * scale
    }
}

fn per_layer(pass: &TracedPass) -> Metrics {
    let tr = &pass.tracer;
    let count = |k: &str| tr.counts().get(k).copied().unwrap_or(0) as f64;
    let us = 1e-3;
    let ms = 1e-6;
    let mut m = Metrics(Vec::new());
    m.push("core.canon_us", p50_of(tr, "core.canon", us), "us");
    m.push("predict.fit_ms", p50_of(tr, "predict.fit", ms), "ms");
    m.push("predict.fit_calls", count("predict.fit_calls"), "count");
    m.push("predict.query_us", p50_of(tr, "predict.query", us), "us");
    m.push(
        "alloc.partition_us",
        p50_of(tr, "alloc.partition", us),
        "us",
    );
    m.push("topo.partition_us", p50_of(tr, "topo.partition", us), "us");
    m.push(
        "topo.multilevel_us",
        p50_of(tr, "topo.multilevel", us),
        "us",
    );
    m.push("netsim.compile_ms", p50_of(tr, "netsim.compile", ms), "ms");
    let sim_ns: f64 = tr.durations("netsim.simulate").iter().sum();
    m.push(
        "netsim.simulate_ms_per_iter",
        sim_ns * ms / count("netsim.iterations"),
        "ms",
    );
    m.push("netsim.halo_steps", count("netsim.halo_steps"), "count");
    m.push("serve.parse_us", p50_of(tr, "serve.parse", us), "us");
    m.push("serve.render_us", p50_of(tr, "serve.render", us), "us");
    let spans = &pass.server_spans;
    let work: Vec<f64> = spans.iter().map(|s| s.work_us).collect();
    let total: Vec<f64> = spans.iter().map(|s| s.total_us).collect();
    let queue: Vec<f64> = spans
        .iter()
        .filter(|s| s.path == "worker")
        .map(|s| s.wait_us)
        .collect();
    let rtt: Vec<f64> = pass
        .serve
        .hit_us
        .iter()
        .chain(&pass.serve.miss_us)
        .copied()
        .collect();
    m.push("serve.work_us_p50", median(&work), "us");
    m.push(
        "serve.client_wait_us_p50",
        median(&rtt) - median(&total),
        "us",
    );
    m.push("serve.queue_wait_us_p50", median(&queue), "us");
    m.push("serve.cache_hits", count("serve.cache_hits"), "count");
    m.push("serve.cache_misses", count("serve.cache_misses"), "count");
    m.push("sweep.disk_get_us", p50_of(tr, "sweep.disk_get", us), "us");
    m.push("sweep.disk_put_us", p50_of(tr, "sweep.disk_put", us), "us");
    m.push("sweep.disk_hits", count("sweep.disk_hits"), "count");
    m.push("sweep.computed", count("sweep.computed"), "count");
    let split = &pass.timings;
    m.push(
        "miniwrf.parent_ms_per_iter",
        split.parent_s * 1e3 / split.iterations,
        "ms",
    );
    m.push(
        "miniwrf.siblings_ms_per_iter",
        split.siblings_s * 1e3 / split.iterations,
        "ms",
    );
    m.push("miniwrf.interp_us", p50_of(tr, "miniwrf.interp", us), "us");
    m.push(
        "miniwrf.feedback_us",
        p50_of(tr, "miniwrf.feedback", us),
        "us",
    );
    m.push("fleet.encode_us", p50_of(tr, "fleet.encode", us), "us");
    m.push("fleet.decode_us", p50_of(tr, "fleet.decode", us), "us");
    let (co_wait, wk_wait) = pass
        .fleet
        .as_ref()
        .map(|r| {
            let workers: f64 = r.summary.worker_rows.iter().map(|w| w.obs.wait_s).sum();
            (r.summary.coordinator.wait_s, workers)
        })
        .unwrap_or((f64::NAN, f64::NAN));
    m.push("fleet.coordinator_wait_s", co_wait, "s");
    m.push("fleet.worker_wait_s", wk_wait, "s");
    m.push("fleet.frames_in", count("fleet.frames_in"), "count");
    m.push("fleet.bytes_in", count("fleet.bytes_in"), "B");
    m.push("fleet.bytes_out", count("fleet.bytes_out"), "B");
    m
}

/// The traced run: two passes, whose counts must agree and whose layer
/// self times must reconcile with the untraced times.
fn traced(
    args: &Args,
    lanes: &Lanes,
    s: &Setup,
    preds: &Predictors,
    work_dir: &std::path::Path,
    out: &mut Outcome,
) -> Metrics {
    let first = traced_pass(args, lanes, s, preds, out);
    let second = traced_pass(args, lanes, s, preds, out);

    // Counts are work done, not time: they must repeat exactly. The one
    // exception is the coordinator's received bytes: each worker's final
    // Done frame carries its wall-clock wait statistics as JSON numbers,
    // whose text length varies by a few bytes from run to run.
    let (a, b) = (first.tracer.counts(), second.tracer.counts());
    let slack = BYTES_IN_SLACK_PER_WORKER * lanes.fleet_workers as u64;
    println!("counts across two traced passes (exact; fleet.bytes_in within {slack} B):");
    let keys: std::collections::BTreeSet<_> = a.keys().chain(b.keys()).collect();
    for k in keys {
        let (x, y) = (
            a.get(k).copied().unwrap_or(0),
            b.get(k).copied().unwrap_or(0),
        );
        let ok = x == y || (*k == "fleet.bytes_in" && x.abs_diff(y) <= slack);
        println!("  {k}: {x} / {y}{}", if ok { "" } else { "  DIFFERS" });
        out.check(ok, "a count differs between two traced passes of one seed");
    }

    println!("traced vs untraced (overhead signed; coverage = layer self time / untraced reference, bound ±{RECONCILE_BOUND}):");
    for ph in &second.phases {
        let cov = ph.coverage();
        let ok = (cov - 1.0).abs() <= RECONCILE_BOUND;
        println!(
            "  {}: untraced={:.4}s traced={:.4}s overhead={:+.2}% layers={:.4}s reference={:.4}s coverage={:.3} (median of {} items){}",
            ph.name,
            ph.untraced_s,
            ph.traced_s,
            ph.overhead_pct(),
            ph.layers_s,
            ph.reference_s,
            cov,
            ph.item_ratios.len(),
            if ok { "" } else { "  OUT OF BOUND" }
        );
        out.check(
            ok,
            "layer self times do not reconcile with the untraced time",
        );
    }
    println!("layer self time (s):");
    for (layer, secs) in second.tracer.layer_self_s() {
        println!("  {layer}: {secs:.4}");
    }
    let path = work_dir.with_file_name(format!("trace-{}-{}.json", args.workload.name, args.seed));
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"nproc\":{},\"lanes\":{}}}",
        args.workload.name, args.seed, lanes.nproc, lanes.lanes
    );
    match second.tracer.write_json(&path, &header) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written: {e}"),
    }
    per_layer(&second)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: perfbench --workload plan-sweep|serve-mixed|fleet --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let lanes = Lanes::detect();
    let probes: Vec<String> = UNITS
        .iter()
        .filter(|u| !args.workload.own.contains(u))
        .map(|&u| format!("{u:?}x{}", probe_count(u)))
        .collect();
    println!(
        "workload={} seed={} seconds={} trace={} own={:?} probes={}",
        args.workload.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        args.workload.own,
        probes.join(",")
    );
    lanes.report();

    let out_dir = PathBuf::from(".bench_out");
    let work_dir = out_dir.join(format!("work-{}", std::process::id()));
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    let mut out = Outcome::default();
    for _ in 0..SETUP_REPS {
        if let Some((_, warm)) = built.take() {
            serve_phase::stop(warm, &mut out);
            let _ = std::fs::remove_dir_all(&work_dir);
        }
        let t0 = Instant::now();
        built = Some(setup(&args, &lanes, &work_dir));
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = median(&setup_times);
    println!("setup_s: {setup_s:.4} (median of {SETUP_REPS}: {setup_times:?})");
    let (s, warm) = built.expect("set up at least once");
    let preds = serve_phase::predictors();

    let metrics = if args.trace {
        // The traced passes start servers of their own.
        serve_phase::stop(warm, &mut out);
        traced(&args, &lanes, &s, &preds, &work_dir, &mut out)
    } else {
        end_to_end(&args, &lanes, &s, warm, &preds, setup_s, &mut out)
    };
    let _ = std::fs::remove_dir_all(&work_dir);

    println!("attempted by kind: {:?}", out.attempted);
    println!("failed by kind: {:?}", out.failed);
    println!(
        "checks: {} run, failures: {:?}",
        out.checks, out.check_failures
    );
    println!("{}", report::result_line(&out, &metrics));
}

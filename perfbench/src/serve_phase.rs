//! The planning service under closed-loop load: an in-process server and
//! one client thread per connection, each sending its next `plan` line
//! only after the previous response arrived. Most lines repeat a fixed hot
//! set; a seeded share are distinct cold scenarios.

use crate::inputs::{self, Config, MACHINES};
use crate::mirror::{self, PROFILE_SEED};
use crate::report::{Outcome, Phase};
use crate::stats::{median, Screened, StealClock};
use crate::trace::Tracer;
use nestwx_core::{fit_predictor, MappingKind};
use nestwx_predict::ExecTimePredictor;
use nestwx_serve::protocol::response_ok_line;
use nestwx_serve::{
    keys, render_plan, spawn, Client, Request, RequestBody, ServeConfig, ServerHandle,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// Scenarios in the hot set.
pub const HOT_SET: usize = 64;
/// Share of requests that carry a distinct cold scenario.
pub const MISS_SHARE: f64 = 0.05;
/// Requests each connection sends per round of the traced run; two
/// connections' rounds fit one flight-recorder envelope (192 spans) with
/// room to spare.
const TRACE_ROUND: usize = 80;

/// Server configuration: `workers` threads, one reader, flight recorder
/// as given, no limits, and a plan cache that holds the hot set many times
/// over: a hot entry is read every ~70 requests, far sooner than the cold
/// scenarios arriving in between could push it out of its LRU shard.
pub fn server_config(workers: usize, recording: bool) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        readers: 1,
        queue_depth: 64,
        cache_capacity: 1024,
        max_conns: 64,
        deadline_ms: 0,
        rate: 0,
        burst: 8,
        client_cap: 1024,
        predictors: 64,
        idle_ms: 0,
        lifetime_ms: 0,
        cache_dir: None,
        trace: recording,
        trace_ring: 4096,
        trace_slow_us: 0,
    }
}

/// A running server with its hot set answered once (planned) and again
/// (served from cache), so every hot line is on the raw-line fast path.
pub struct Warm {
    pub handle: ServerHandle,
    /// The response every later request for hot line `i` must repeat.
    pub hot_responses: Vec<String>,
}

pub fn start(cfg: ServeConfig, hot: &[String]) -> std::io::Result<Warm> {
    let handle = spawn(cfg)?;
    let mut client = Client::connect(handle.addr())?;
    let mut hot_responses = Vec::with_capacity(hot.len());
    for line in hot {
        let first = client.call_pipelined(std::slice::from_ref(line))?.remove(0);
        let again = client.call_pipelined(std::slice::from_ref(line))?.remove(0);
        if first != again {
            return Err(std::io::Error::other("hot response changed between calls"));
        }
        hot_responses.push(first);
    }
    Ok(Warm {
        handle,
        hot_responses,
    })
}

/// Shuts the server down and checks it drained cleanly.
pub fn stop(warm: Warm, out: &mut Outcome) {
    warm.handle.shutdown();
    let drain = warm.handle.wait();
    out.check(drain.clean(), "serve did not drain cleanly");
}

/// One request a client made.
enum Sent {
    Hit {
        line: usize,
    },
    Miss {
        config: Box<Config>,
        mapping: MappingKind,
    },
}

/// The per-connection request stream: a seeded choice between a hot line
/// and a fresh cold scenario of this connection's class. A clone taken
/// before the first request regenerates the same requests for the checks.
#[derive(Clone)]
pub struct Stream {
    rng: StdRng,
    cold: StdRng,
    class: u32,
    classes: u32,
    /// FNV-1a digests of the cold lines issued, to keep them distinct.
    seen: HashSet<u64>,
    issued: usize,
}

impl Stream {
    pub fn new(seed: u64, conn: u32, conns: u32) -> Stream {
        Stream {
            rng: inputs::rng(seed, 100 + conn as u64),
            cold: inputs::rng(seed, 200 + conn as u64),
            class: conn + 1,
            classes: conns + 1,
            seen: HashSet::new(),
            issued: 0,
        }
    }

    fn next(&mut self, hot: usize) -> Sent {
        if !self.rng.gen_bool(MISS_SHARE) {
            return Sent::Hit {
                line: self.rng.gen_range(0..hot),
            };
        }
        loop {
            let config = inputs::config(&mut self.cold, self.issued, self.class, self.classes);
            let mapping = [MappingKind::Partition, MappingKind::MultiLevel][self.issued % 2];
            let digest = nestwx_core::fnv1a64(config.plan_line(mapping).as_bytes());
            if self.seen.insert(digest) {
                self.issued += 1;
                return Sent::Miss {
                    config: Box::new(config),
                    mapping,
                };
            }
        }
    }
}

/// A fixed-size uniform sample of a latency stream (Vitter's algorithm R).
/// The buffer is written in full when created, so the process's peak
/// memory does not depend on how many requests complete.
struct Reservoir {
    buf: Vec<f64>,
    seen: u64,
    rng: StdRng,
}

impl Reservoir {
    fn new(capacity: usize, rng: StdRng) -> Reservoir {
        Reservoir {
            buf: vec![f64::NAN; capacity],
            seen: 0,
            rng,
        }
    }

    fn push(&mut self, x: f64) {
        let cap = self.buf.len() as u64;
        let slot = if self.seen < cap {
            self.seen
        } else {
            self.rng.gen_range(0..=self.seen)
        };
        if slot < cap {
            self.buf[slot as usize] = x;
        }
        self.seen += 1;
    }

    fn samples(&self) -> &[f64] {
        &self.buf[..self.buf.len().min(self.seen as usize)]
    }
}

/// Latency samples kept per connection and kind.
const HIT_SAMPLES: usize = 1 << 16;
const MISS_SAMPLES: usize = 1 << 14;

/// One client connection and everything it observed.
struct Conn {
    stream: Stream,
    /// The stream as it was before the first request.
    replay: Stream,
    hit_us: Reservoir,
    miss_us: Reservoir,
    /// FNV-1a digest of every cold response, in send order (8 bytes per
    /// cold request; [`NO_RESPONSE`] where the transport failed); the
    /// requests are regenerated from `replay` for the check after the timed
    /// window.
    miss_digests: Vec<u64>,
    /// Requests drawn from the stream (sent, whether answered or not).
    sent: usize,
    completed: usize,
    /// Hit responses that differed from the line's first response.
    hit_mismatches: usize,
    /// Non-ok responses by error kind (transport failures as `io`).
    errors: BTreeMap<String, usize>,
    /// Round trips of the current burst or round: hits and misses.
    burst: [Vec<f64>; 2],
    /// Request lines of the current traced round.
    lines: Vec<(String, bool)>,
}

impl Conn {
    /// Sends up to `requests` requests, stopping at `until`; returns how
    /// many were answered.
    fn drive(
        &mut self,
        client: &mut Client,
        hot: &[String],
        hot_responses: &[String],
        until: Option<Instant>,
        requests: usize,
        keep_lines: bool,
    ) -> usize {
        let before = self.completed;
        for _ in 0..requests {
            if until.is_some_and(|u| Instant::now() >= u) {
                break;
            }
            let sent = self.stream.next(hot.len());
            self.sent += 1;
            let line = match &sent {
                Sent::Hit { line } => hot[*line].clone(),
                Sent::Miss { config, mapping } => config.plan_line(*mapping),
            };
            let t0 = Instant::now();
            let res = client.call_pipelined(std::slice::from_ref(&line));
            let us = t0.elapsed().as_secs_f64() * 1e6;
            let response = match res {
                Ok(mut r) => r.remove(0),
                Err(_) => {
                    *self.errors.entry("io".into()).or_insert(0) += 1;
                    match sent {
                        Sent::Hit { .. } => self.record(false, f64::INFINITY),
                        Sent::Miss { .. } => {
                            self.record(true, f64::INFINITY);
                            self.miss_digests.push(NO_RESPONSE);
                        }
                    }
                    break;
                }
            };
            self.completed += 1;
            if keep_lines {
                self.lines.push((line, matches!(sent, Sent::Miss { .. })));
            }
            let ok = response.starts_with("{\"v\":1,\"ok\":true");
            if !ok {
                let kind = serde_json::from_str(&response)
                    .ok()
                    .and_then(|v: serde_json::Value| {
                        v.get("error")?.get("kind")?.as_str().map(String::from)
                    })
                    .unwrap_or_else(|| "unparseable".into());
                *self.errors.entry(kind).or_insert(0) += 1;
            }
            let us = if ok { us } else { f64::INFINITY };
            match sent {
                Sent::Hit { line } => {
                    self.record(false, us);
                    if response != hot_responses[line] {
                        self.hit_mismatches += 1;
                    }
                }
                Sent::Miss { .. } => {
                    self.record(true, us);
                    self.miss_digests
                        .push(nestwx_core::fnv1a64(response.as_bytes()));
                }
            }
        }
        self.completed - before
    }

    fn record(&mut self, miss: bool, us: f64) {
        if miss {
            self.miss_us.push(us);
        } else {
            self.hit_us.push(us);
        }
        self.burst[miss as usize].push(us);
    }
}

/// Fitted predictors per machine, as the service caches them.
pub fn predictors() -> BTreeMap<&'static str, ExecTimePredictor> {
    MACHINES
        .iter()
        .map(|&m| (m, fit_predictor(&inputs::machine(m), PROFILE_SEED)))
        .collect()
}

/// The digest recorded for a cold request that got no response: counted as
/// failed, not checked.
const NO_RESPONSE: u64 = 0;

/// Cold requests checked at a time: the check's memory stays bounded.
const CHECK_CHUNK: usize = 512;

/// Whether the response digest of a cold request equals that of a
/// directly computed plan.
fn miss_ok(
    preds: &BTreeMap<&'static str, ExecTimePredictor>,
    config: &Config,
    mapping: MappingKind,
    digest: u64,
) -> bool {
    let sc = config.scenario_with(
        nestwx_core::Strategy::Concurrent,
        nestwx_core::AllocPolicy::HuffmanSplitTree,
        mapping,
    );
    let plan = sc
        .planner()
        .with_predictor(preds[config.spec].clone())
        .plan(&sc.parent, &sc.nests);
    let want = plan.ok().and_then(|p| render_plan(&sc, &p).ok());
    want.map(|w| nestwx_core::fnv1a64(response_ok_line(None, &w).as_bytes())) == Some(digest)
}

/// Checks every cold response against a directly computed plan, with the
/// requests regenerated from the stream, and folds the connections'
/// counts into the outcome.
fn account(
    conns: &[Conn],
    hot: usize,
    preds: &BTreeMap<&'static str, ExecTimePredictor>,
    out: &mut Outcome,
) {
    for conn in conns {
        out.attempt("serve", conn.sent);
        for (kind, n) in &conn.errors {
            out.fail(format!("serve_{kind}"), *n);
        }
        out.check(
            conn.hit_mismatches == 0,
            "serve hit differs from the first response",
        );
        // Planning every miss again is the slow part of the check: split
        // it over two threads, outside any timed window.
        let mut stream = conn.replay.clone();
        let mut digests = conn.miss_digests.iter().copied();
        let mut bad = 0;
        let mut left = conn.sent;
        while left > 0 {
            let mut chunk = Vec::with_capacity(CHECK_CHUNK);
            while left > 0 && chunk.len() < CHECK_CHUNK {
                left -= 1;
                if let Sent::Miss { config, mapping } = stream.next(hot) {
                    let digest = digests.next().expect("a digest per cold request");
                    chunk.push((config, mapping, digest));
                }
            }
            bad += std::thread::scope(|s| {
                let handles: Vec<_> = chunk
                    .chunks(chunk.len().div_ceil(2).max(1))
                    .map(|part| {
                        s.spawn(move || {
                            part.iter()
                                .filter(|(c, m, d)| *d != NO_RESPONSE && !miss_ok(preds, c, *m, *d))
                                .count()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("check thread"))
                    .sum::<usize>()
            });
        }
        out.check(bad == 0, "serve miss differs from a direct render_plan");
    }
}

/// Closed-loop results.
pub struct ServeTimes {
    /// Completed requests per second of every timed burst, and the median
    /// hit and miss round trip of every burst, screened by the CPU time
    /// the host stole during the burst.
    pub burst_rps: Screened,
    pub hit_p50: Screened,
    pub miss_p50: Screened,
    /// Uniform samples of every round trip, timed bursts and traced rounds.
    pub hit_us: Vec<f64>,
    pub miss_us: Vec<f64>,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// Server-side span fields of one traced request, in microseconds.
pub struct ServerSpan {
    pub path: String,
    pub wait_us: f64,
    pub work_us: f64,
    pub total_us: f64,
}

/// One server under closed-loop load, driven in timed bursts or in fixed
/// rounds of [`TRACE_ROUND`] requests per connection; keeps the
/// client-observed time of the bursts and rounds.
pub struct Load {
    warm: Warm,
    clients: Vec<Client>,
    conns: Vec<Conn>,
    client_s: f64,
    burst_rps: Screened,
    hit_p50: Screened,
    miss_p50: Screened,
    cache_before: nestwx_serve::CacheStats,
}

impl Load {
    pub fn new(warm: Warm, seed: u64, conns: usize) -> Load {
        let clients = (0..conns)
            .map(|_| Client::connect(warm.handle.addr()).expect("server accepts connections"))
            .collect();
        let conns = (0..conns)
            .map(|c| {
                let stream = Stream::new(seed, c as u32, conns as u32);
                Conn {
                    replay: stream.clone(),
                    stream,
                    hit_us: Reservoir::new(HIT_SAMPLES, inputs::rng(seed, 300 + c as u64)),
                    miss_us: Reservoir::new(MISS_SAMPLES, inputs::rng(seed, 400 + c as u64)),
                    miss_digests: Vec::new(),
                    sent: 0,
                    completed: 0,
                    hit_mismatches: 0,
                    errors: BTreeMap::new(),
                    burst: [Vec::new(), Vec::new()],
                    lines: Vec::new(),
                }
            })
            .collect();
        let cache_before = warm.handle.stats_snapshot().cache;
        let _ = warm.handle.trace_envelope();
        Load {
            warm,
            clients,
            conns,
            client_s: 0.0,
            burst_rps: Screened::default(),
            hit_p50: Screened::default(),
            miss_p50: Screened::default(),
            cache_before,
        }
    }

    /// Timed bursts run so far.
    pub fn bursts(&self) -> usize {
        self.burst_rps.len()
    }

    /// Runs one round, keeping its request lines.
    fn round(&mut self, hot: &[String]) {
        for c in &mut self.conns {
            c.lines.clear();
        }
        self.run(hot, None, TRACE_ROUND, true);
    }

    /// Every connection sends requests for `secs` seconds.
    pub fn burst(&mut self, hot: &[String], secs: f64) {
        let steal = StealClock::start();
        let t0 = Instant::now();
        let completed = self.run(
            hot,
            Some(t0 + crate::plan_phase::secs(secs)),
            usize::MAX,
            false,
        );
        let rps = completed as f64 / t0.elapsed().as_secs_f64();
        let rate = steal.rate();
        self.burst_rps.push(rps, rate);
        let of_burst = |k: usize| -> Vec<f64> {
            self.conns
                .iter()
                .flat_map(|c| c.burst[k].iter().copied())
                .collect()
        };
        let (hits, misses) = (of_burst(0), of_burst(1));
        if !hits.is_empty() {
            self.hit_p50.push(median(&hits), rate);
        }
        if !misses.is_empty() {
            self.miss_p50.push(median(&misses), rate);
        }
    }

    /// Returns the requests answered.
    fn run(
        &mut self,
        hot: &[String],
        until: Option<Instant>,
        requests: usize,
        keep_lines: bool,
    ) -> usize {
        let hot_responses = &self.warm.hot_responses;
        for c in &mut self.conns {
            c.burst.iter_mut().for_each(Vec::clear);
        }
        let t0 = Instant::now();
        let completed = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(self.clients.iter_mut())
                .map(|(conn, client)| {
                    s.spawn(move || {
                        conn.drive(client, hot, hot_responses, until, requests, keep_lines)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .sum()
        });
        self.client_s += t0.elapsed().as_secs_f64();
        completed
    }

    /// Stops the server and accounts for every request.
    pub fn finish(
        self,
        hot: usize,
        preds: &BTreeMap<&'static str, ExecTimePredictor>,
        out: &mut Outcome,
    ) -> (f64, ServeTimes) {
        let Load {
            warm,
            clients,
            conns,
            client_s,
            burst_rps,
            hit_p50,
            miss_p50,
            cache_before,
        } = self;
        drop(clients);
        let after = warm.handle.stats_snapshot().cache;
        stop(warm, out);
        account(&conns, hot, preds, out);
        let merged = |f: fn(&Conn) -> &Reservoir| -> Vec<f64> {
            conns
                .iter()
                .flat_map(|c| f(c).samples().iter().copied())
                .collect()
        };
        let times = ServeTimes {
            burst_rps,
            hit_p50,
            miss_p50,
            hit_us: merged(|c| &c.hit_us),
            miss_us: merged(|c| &c.miss_us),
            cache_hits: after.hits - cache_before.hits,
            cache_misses: after.misses - cache_before.misses,
        };
        (client_s, times)
    }
}

/// The server's work for one request line, call by call.
fn replay(
    tr: &mut Tracer,
    line: &str,
    cold: bool,
    preds: &BTreeMap<&'static str, ExecTimePredictor>,
) {
    let req = tr
        .leaf("serve.parse", || Request::parse_line(line))
        .expect("benchmark lines parse");
    if !cold {
        return;
    }
    let RequestBody::Plan(params) = req.body else {
        unreachable!("the benchmark only sends plan requests")
    };
    let sc = params.to_scenario().expect("benchmark machines are valid");
    let _key = tr.leaf("core.canon", || keys::plan_key(&sc));
    let pred = preds.get(params.machine.as_str());
    if let Ok(plan) = mirror::plan(tr, &sc, pred) {
        let _ = tr.leaf("serve.render", || render_plan(&sc, &plan));
    }
}

/// Layer self time of the replayed worker path since span `first`:
/// everything but parsing, which the server does on its reader.
fn cold_layers_s(tr: &Tracer, first: usize) -> f64 {
    tr.self_time_since(first, |s| s.layer() != "op" && s.name != "serve.parse")
}

/// The serve pass of the traced run: the same fixed request sequence
/// against a server without the flight recorder (untraced) and one with it
/// (traced), round by round in alternating order. After each traced round
/// the recorder is drained and every line is replayed through the layer
/// calls (parse; for cold lines canon, predict, allocate, map, render).
#[allow(clippy::too_many_arguments)]
pub fn traced(
    hot: &[String],
    seed: u64,
    conns: usize,
    workers: usize,
    rounds: usize,
    preds: &BTreeMap<&'static str, ExecTimePredictor>,
    tr: &mut Tracer,
    spans: &mut Vec<ServerSpan>,
    out: &mut Outcome,
) -> (Phase, ServeTimes) {
    let start_rounds = |recording| {
        let warm = start(server_config(workers, recording), hot).expect("server starts");
        Load::new(warm, seed, conns)
    };
    let mut plain = start_rounds(false);
    let mut recorded = start_rounds(true);
    let first_server_span = spans.len();
    let first_span = tr.spans().len();
    let mut request_id = 0u64;
    let mut ratios = Vec::new();
    for r in 0..rounds {
        if r % 2 == 0 {
            plain.round(hot);
        }
        recorded.round(hot);
        if r % 2 == 1 {
            plain.round(hot);
        }
        let env = recorded.warm.handle.trace_envelope();
        out.check(
            env.summary.spans_truncated == 0,
            "flight recorder envelope truncated spans",
        );
        out.check(env.summary.dropped == 0, "flight recorder dropped spans");
        let round_work_s: f64 = env
            .spans
            .iter()
            .filter(|s| s.path == "worker")
            .map(|s| s.work_us as f64 * 1e-6)
            .sum();
        spans.extend(env.spans.iter().map(|s| ServerSpan {
            path: s.path.to_string(),
            wait_us: s.wait_us as f64,
            work_us: s.work_us as f64,
            total_us: s.total_us as f64,
        }));
        let round_first = tr.spans().len();
        for conn in &recorded.conns {
            for (line, cold) in &conn.lines {
                tr.set_request(request_id);
                request_id += 1;
                tr.span("op.serve", |tr| replay(tr, line, *cold, preds));
            }
        }
        if round_work_s > 0.0 {
            ratios.push(cold_layers_s(tr, round_first) / round_work_s);
        }
    }
    let (untraced_s, _) = plain.finish(hot.len(), preds, out);
    let (traced_s, times) = recorded.finish(hot.len(), preds, out);
    // The replayed layer calls reconcile with the work the server reports
    // for the requests that reached a worker (the cold ones).
    let worker_work_s: f64 = spans[first_server_span..]
        .iter()
        .filter(|s| s.path == "worker")
        .map(|s| s.work_us * 1e-6)
        .sum();
    let phase = Phase {
        name: "serve-mixed",
        untraced_s,
        traced_s,
        layers_s: cold_layers_s(tr, first_span),
        reference_s: worker_work_s,
        item_ratios: ratios,
    };
    (phase, times)
}

/// Generates the hot set: `HOT_SET` configurations of class 0 (connection
/// `c` draws its cold scenarios from class `c + 1`).
pub fn hot_lines(seed: u64, conns: usize) -> Vec<String> {
    inputs::configs(seed, 3, HOT_SET, 0, conns as u32 + 1)
        .iter()
        .map(|c| c.plan_line(MappingKind::Partition))
        .collect()
}

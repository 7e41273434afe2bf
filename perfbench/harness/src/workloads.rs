//! The three workloads. Each has a set-up step, run several times per
//! process so `setup_s` is a median, and an operation the run repeats
//! for its measuring window.
//!
//! * `study`: the paper's 16 benchmarks × 5 nodes through `run_study`.
//! * `query_mix`: rounds of Zipf-drawn reliability queries from two
//!   closed-loop in-process clients against a fresh `Server`.
//! * `fleet`: `run_fleet` for gzip at all five nodes, 1M chips per node.

use crate::spans::{SpanId, Tracer, NONE};
use crate::util::{counter_sum, histogram_count, span_busy, span_count, timed, SplitMix64};
use ramp_core::{
    results_digest, run_study, NodeId, PipelineConfig, QueryEngine, StudyConfig, TechNode,
};
use ramp_fleet::{run_fleet, FleetConfig};
use ramp_microarch::{
    clear_timing_cache, simulate_profile_cached, timing_cache_stats, MachineConfig,
    SimulationLength, Structure,
};
use ramp_serve::{Request, ServeOptions, Server};
use ramp_trace::{spec, BenchmarkProfile};
use ramp_units::Seconds;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Barrier;
use std::time::Instant;

/// Benchmark the fleet workload (and every fleet probe) perturbs.
pub const FLEET_BENCHMARK: &str = "gzip";
/// Chips per node in one fleet operation.
pub const FLEET_CHIPS: u64 = 1_000_000;
/// Closed-loop clients loading the query_mix server.
const CLIENTS: usize = 2;
/// Requests in one query_mix round.
pub const ROUND_REQUESTS: usize = 4000;
/// `trace_repeats` values the query mix draws from.
pub const MAX_REPEATS: u32 = 8;

/// One (benchmark, node, trace_repeats) query key.
#[derive(Debug, Clone)]
pub struct Key {
    pub benchmark: String,
    pub node: NodeId,
    pub repeats: u32,
}

impl Key {
    pub fn label(&self) -> String {
        format!("{}|{}|{}", self.benchmark, self.node.label(), self.repeats)
    }
}

/// Work counters and busy times of one operation, read from outside the
/// program: the timing-cache statistics, the obs counters and histograms,
/// and the always-on obs span totals (summed across worker threads).
#[derive(Debug, Clone)]
pub struct Counters {
    pub sims: u64,
    pub timing_lookups: u64,
    pub timing_hits: u64,
    pub instr_simulated: u64,
    pub trace_records: u64,
    pub runs: u64,
    pub intervals: u64,
    pub structure_updates: u64,
    pub timing_busy_s: f64,
    pub first_pass_busy_s: f64,
    pub second_pass_busy_s: f64,
    /// Pipeline runs plus fleet chunks: the work the executor schedules.
    pub executor_busy_s: f64,
    pub fleet_chips: u64,
    /// Program spans (obs) that ended during the operation.
    pub spans: u64,
    pub serve: Option<ServeCounters>,
}

/// Per-round serve counters (query_mix only).
#[derive(Debug, Clone, Default)]
pub struct ServeCounters {
    pub lookups: u64,
    pub cache_hits: u64,
    pub executions: u64,
    pub coalesced: u64,
    pub evictions: u64,
    pub overloaded: u64,
    pub errors: u64,
}

struct CounterProbe {
    cache: ramp_microarch::TimingCacheStats,
    trace: u64,
    intervals: u64,
    chips: u64,
}

impl CounterProbe {
    fn start() -> Self {
        ramp_obs::reset_spans();
        CounterProbe {
            cache: timing_cache_stats(),
            trace: counter_sum("trace.instructions."),
            intervals: histogram_count("thermal.substeps_per_interval"),
            chips: counter_sum("fleet.chips_simulated"),
        }
    }

    fn finish(self) -> Counters {
        let cache = timing_cache_stats();
        let misses = cache.misses - self.cache.misses;
        let hits = cache.hits - self.cache.hits;
        let intervals = histogram_count("thermal.substeps_per_interval") - self.intervals;
        let (run_busy, runs) = span_busy("run");
        Counters {
            sims: misses,
            timing_lookups: hits + misses,
            timing_hits: hits,
            instr_simulated: 0,
            trace_records: counter_sum("trace.instructions.") - self.trace,
            runs,
            intervals,
            structure_updates: intervals * Structure::COUNT as u64,
            timing_busy_s: span_busy("timing").0,
            first_pass_busy_s: span_busy("first_pass").0,
            second_pass_busy_s: span_busy("second_pass").0,
            executor_busy_s: run_busy + span_busy("fleet_chunk").0,
            fleet_chips: counter_sum("fleet.chips_simulated") - self.chips,
            spans: span_count(),
            serve: None,
        }
    }
}

/// The outcome of one measured operation.
#[derive(Debug, Clone)]
pub struct OpSample {
    pub wall_s: f64,
    /// Process CPU seconds the operation used (all threads).
    pub cpu_s: f64,
    /// Host-wide CPU seconds the hypervisor stole during the operation.
    pub steal_s: f64,
    /// Output digest; every operation of a run must reproduce the first.
    pub digest: String,
    pub attempted: u64,
    pub failed: u64,
    /// Work units completed (grid cells, queries, or chips).
    pub work: f64,
    /// Client-side request latencies (query_mix only).
    pub latencies_ms: Vec<f64>,
    pub counters: Counters,
}

/// What the layer probes feed each layer: the workload's own profiles,
/// nodes, pipeline settings and query keys.
pub struct ProbeInputs {
    pub profiles: Vec<BenchmarkProfile>,
    pub nodes: Vec<NodeId>,
    pub pipeline: PipelineConfig,
    pub keys: Vec<Key>,
    pub engine: QueryEngine,
}

pub trait Workload {
    /// Builds everything the measured operations need. Called several
    /// times; each call starts from a cleared timing cache so every call
    /// does the same work.
    fn setup(&mut self);
    fn op(&mut self, tracer: &Tracer, parent: SpanId) -> OpSample;
    fn probe_inputs(&self) -> ProbeInputs;
    /// Digest the default seed must reproduce.
    fn pinned_digest(&self) -> &'static str;
}

/// Cycles per 1 µs activity interval at a node's clock (the pipeline's
/// interval length).
pub fn interval_cycles(node: NodeId) -> u64 {
    TechNode::get(node)
        .frequency
        .cycles_in(Seconds::MICROSECOND)
}

fn distinct_timing_keys(
    profiles: &[BenchmarkProfile],
    nodes: &[NodeId],
) -> Vec<(BenchmarkProfile, u64)> {
    let ics: BTreeSet<u64> = nodes.iter().map(|&n| interval_cycles(n)).collect();
    profiles
        .iter()
        .flat_map(|p| ics.iter().map(move |&ic| (p.clone(), ic)))
        .collect()
}

/// Instructions retired by the cached timing outputs of `keys` (read
/// after the operation, so the extra lookups do not touch its counters).
fn cached_instructions(keys: &[(BenchmarkProfile, u64)], budget: u64) -> u64 {
    let machine = MachineConfig::power4_180nm();
    keys.iter()
        .map(|(p, ic)| {
            simulate_profile_cached(&machine, p, SimulationLength::Instructions(budget), *ic)
                .stats
                .instructions
        })
        .sum()
}

fn quick_config(threads: usize, benchmarks: Option<&[&str]>) -> StudyConfig {
    let mut cfg = StudyConfig::quick();
    if let Some(names) = benchmarks {
        cfg = cfg
            .with_benchmarks(names)
            .expect("workload benchmarks are known");
    }
    cfg.threads = threads;
    cfg
}

// ---------------------------------------------------------------------------
// study
// ---------------------------------------------------------------------------

pub struct Study {
    threads: usize,
    config: StudyConfig,
}

/// Results digest of the 16 × 5 quick study.
pub const STUDY_DIGEST: &str = "2b6aa5f9664a0107";

impl Study {
    pub fn new(threads: usize) -> Self {
        Study {
            threads,
            config: quick_config(threads, None),
        }
    }
}

impl Workload for Study {
    fn setup(&mut self) {
        clear_timing_cache();
        self.config = quick_config(self.threads, None);
        // One study over a single benchmark brings up the executor,
        // lazy statics and allocator arenas before the first timed study.
        let warm = quick_config(self.threads, Some(&[FLEET_BENCHMARK]));
        run_study(&warm).expect("warm-up study runs");
        clear_timing_cache();
    }

    fn op(&mut self, tracer: &Tracer, parent: SpanId) -> OpSample {
        // Every user of the study pays the timing simulations, so each
        // operation starts from an empty timing cache.
        clear_timing_cache();
        let probe = CounterProbe::start();
        let span = tracer.begin("op.run_study", parent, 0);
        let (results, wall_s) = timed(|| run_study(&self.config));
        tracer.end(span);
        let mut counters = probe.finish();
        let (digest, failed, work) = match &results {
            Ok(r) => {
                // The program's own interval count must agree with the
                // count read from the thermal histogram.
                let consistent = r.metrics().intervals == counters.intervals;
                (
                    results_digest(r),
                    u64::from(!consistent),
                    r.app_results().len() as f64,
                )
            }
            Err(e) => (format!("error: {e}"), 1, 0.0),
        };
        if counters.sims > 0 {
            let keys = distinct_timing_keys(&self.config.benchmarks, &self.config.nodes);
            counters.instr_simulated =
                cached_instructions(&keys, self.config.pipeline.instructions);
        }
        OpSample {
            wall_s,
            cpu_s: 0.0,
            steal_s: 0.0,
            digest,
            attempted: 1,
            failed,
            work,
            latencies_ms: Vec::new(),
            counters,
        }
    }

    fn probe_inputs(&self) -> ProbeInputs {
        let keys = self
            .config
            .benchmarks
            .iter()
            .flat_map(|p| {
                self.config.nodes.iter().map(|&node| Key {
                    benchmark: p.name.clone(),
                    node,
                    repeats: self.config.pipeline.trace_repeats,
                })
            })
            .collect();
        ProbeInputs {
            profiles: self.config.benchmarks.clone(),
            nodes: self.config.nodes.clone(),
            pipeline: self.config.pipeline.clone(),
            keys,
            engine: QueryEngine::calibrate(&self.config).expect("calibration runs"),
        }
    }

    fn pinned_digest(&self) -> &'static str {
        STUDY_DIGEST
    }
}

// ---------------------------------------------------------------------------
// query_mix
// ---------------------------------------------------------------------------

pub struct QueryMix {
    threads: usize,
    benchmarks: Vec<BenchmarkProfile>,
    keys: Vec<Key>,
    /// One round's requests, as indices into `keys`, and their lines.
    requests: Vec<usize>,
    lines: Vec<String>,
    engine: Option<QueryEngine>,
    pinned: &'static str,
}

/// query_mix digest at the default seed.
pub const QUERY_MIX_DIGEST: &str = "4e055443a57199bb";

impl QueryMix {
    pub fn new(seed: u64, threads: usize) -> Self {
        Self::with_size(
            seed,
            threads,
            None,
            MAX_REPEATS,
            ROUND_REQUESTS,
            QUERY_MIX_DIGEST,
        )
    }

    /// `benchmarks = None` is the paper's 16; the self-test shrinks it.
    pub fn with_size(
        seed: u64,
        threads: usize,
        benchmarks: Option<&[&str]>,
        max_repeats: u32,
        round_requests: usize,
        pinned: &'static str,
    ) -> Self {
        let profiles = quick_config(threads, benchmarks).benchmarks;
        let mut keys = Vec::new();
        for p in &profiles {
            for node in NodeId::ALL {
                for repeats in 1..=max_repeats {
                    keys.push(Key {
                        benchmark: p.name.clone(),
                        node,
                        repeats,
                    });
                }
            }
        }
        let requests = zipf_requests(seed, keys.len(), round_requests);
        let lines = requests
            .iter()
            .enumerate()
            .map(|(i, &k)| request_line(i as u64 + 1, &keys[k]))
            .collect();
        QueryMix {
            threads,
            benchmarks: profiles,
            keys,
            requests,
            lines,
            engine: None,
            pinned,
        }
    }

    fn options(&self) -> ServeOptions {
        ServeOptions {
            threads: self.threads,
            ..ServeOptions::default()
        }
    }

    fn engine(&self) -> &QueryEngine {
        self.engine
            .as_ref()
            .expect("setup ran before the first operation")
    }

    /// Keys in the order a round first requests them.
    fn distinct_keys_in_order(&self) -> Vec<Key> {
        let mut seen = BTreeSet::new();
        self.requests
            .iter()
            .filter(|&&i| seen.insert(i))
            .map(|&i| self.keys[i].clone())
            .collect()
    }
}

/// Seed of the fixed shuffle that gives each key its popularity rank.
const RANK_SEED: u64 = 0x005e_ed0f_2a9c;

/// `n` draws from a Zipf (s = 1) law over `keys` keys. Which key holds
/// which popularity rank is fixed, so every seed asks for the same mix of
/// cheap and costly keys (nodes, `trace_repeats`); the seed draws the
/// request sequence.
fn zipf_requests(seed: u64, keys: usize, n: usize) -> Vec<usize> {
    let mut shuffle = SplitMix64::new(RANK_SEED);
    let mut rank_to_key: Vec<usize> = (0..keys).collect();
    for i in (1..keys).rev() {
        rank_to_key.swap(i, shuffle.below(i + 1));
    }
    let mut rng = SplitMix64::new(seed);
    let mut cdf = Vec::with_capacity(keys);
    let mut acc = 0.0;
    for rank in 0..keys {
        acc += 1.0 / (rank + 1) as f64;
        cdf.push(acc);
    }
    (0..n)
        .map(|_| {
            let u = rng.next_f64() * acc;
            let rank = cdf.partition_point(|&c| c <= u).min(keys - 1);
            rank_to_key[rank]
        })
        .collect()
}

/// A query request line for `key`.
pub fn request_line(id: u64, key: &Key) -> String {
    let mut req = Request::query(id, &key.benchmark, key.node.label());
    req.trace_repeats = Some(key.repeats);
    req.to_line()
}

/// The response line without its `id` field, or `None` unless the status
/// is ok. Cached, coalesced and computed answers must agree on this.
pub fn ok_body(line: &str) -> Option<&str> {
    let body = line.split_once(',')?.1;
    body.starts_with("\"status\":\"ok\"").then_some(body)
}

/// What a closed-loop run returns: per-request latencies, the first
/// ok body seen for each key, and the number of requests that failed
/// (non-ok, or a body differing from the key's first body).
pub struct LoopResult {
    pub latencies_ms: Vec<f64>,
    pub bodies: BTreeMap<usize, String>,
    pub failed: u64,
    /// Host seconds from the common start to the last reply.
    pub wall_s: f64,
}

/// Records `body` (`None` for a failed response) as an answer for `key`;
/// returns whether it failed or differs from the key's first body.
fn check_body(bodies: &mut BTreeMap<usize, String>, key: usize, body: Option<&str>) -> bool {
    match (body, bodies.get(&key)) {
        (None, _) => true,
        (Some(body), Some(first)) => body != first,
        (Some(body), None) => {
            bodies.insert(key, body.to_string());
            false
        }
    }
}

/// Sends `lines` from `CLIENTS` closed-loop clients: client `c` sends
/// every line whose index is `c` modulo `CLIENTS`, each after the previous
/// reply. `keys[i]` names the key line `i` asks for. Responses are checked
/// as they arrive and not kept, so the benchmark's own memory stays small
/// next to the server's.
pub fn closed_loop(
    server: &Server,
    lines: &[String],
    keys: &[usize],
    tracer: &Tracer,
    parent: SpanId,
) -> LoopResult {
    let barrier = Barrier::new(CLIENTS + 1);
    let mut result = LoopResult {
        latencies_ms: Vec::with_capacity(lines.len()),
        bodies: BTreeMap::new(),
        failed: 0,
        wall_s: 0.0,
    };
    result.wall_s = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = server.connect();
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let mut latencies = Vec::with_capacity(lines.len() / CLIENTS + 1);
                    let mut bodies = BTreeMap::new();
                    let mut failed = 0;
                    for (i, line) in lines.iter().enumerate().skip(c).step_by(CLIENTS) {
                        let span = tracer.begin("request", parent, i as u64 + 1);
                        let t0 = Instant::now();
                        let response = client.request_line(line).unwrap_or_default();
                        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                        tracer.end(span);
                        failed += u64::from(check_body(&mut bodies, keys[i], ok_body(&response)));
                    }
                    (latencies, bodies, failed)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let joined: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        let wall = t0.elapsed().as_secs_f64();
        for (latencies, bodies, failed) in joined {
            result.latencies_ms.extend(latencies);
            result.failed += failed;
            for (key, body) in bodies {
                result.failed += u64::from(check_body(&mut result.bodies, key, Some(&body)));
            }
        }
        wall
    });
    result
}

impl Workload for QueryMix {
    fn setup(&mut self) {
        clear_timing_cache();
        let mut cfg = quick_config(self.threads, None);
        cfg.benchmarks = self.benchmarks.clone();
        let engine = QueryEngine::calibrate(&cfg).expect("calibration runs");
        // One base query per (benchmark, node) fills the timing cache, so
        // measured rounds hit it on every lookup.
        let server = Server::start(engine.clone(), self.options());
        let base: Vec<String> = self
            .benchmarks
            .iter()
            .flat_map(|p| NodeId::ALL.map(|n| Request::query(0, &p.name, n.label()).to_line()))
            .collect();
        let distinct: Vec<usize> = (0..base.len()).collect();
        let warm = closed_loop(&server, &base, &distinct, &Tracer::new(false), NONE);
        assert_eq!(warm.failed, 0, "every warm-up query succeeds");
        server.shutdown();
        self.engine = Some(engine);
    }

    fn op(&mut self, tracer: &Tracer, parent: SpanId) -> OpSample {
        let server = Server::start(self.engine().clone(), self.options());
        let probe = CounterProbe::start();
        let span = tracer.begin("op.round", parent, 0);
        let run = closed_loop(&server, &self.lines, &self.requests, tracer, span);
        tracer.end(span);
        let mut counters = probe.finish();
        let stats = server.stats();
        let cache = server.cache_stats();
        server.shutdown();

        let canonical: String = run
            .bodies
            .iter()
            .map(|(&k, body)| (self.keys[k].label(), body))
            .collect::<BTreeMap<_, _>>()
            .iter()
            .map(|(k, body)| format!("{k}\t{body}\n"))
            .collect();
        counters.serve = Some(ServeCounters {
            lookups: cache.l1_hits + cache.l2_hits + cache.misses,
            cache_hits: cache.l1_hits + cache.l2_hits,
            executions: stats.executions,
            coalesced: stats.coalesced,
            evictions: cache.evictions,
            overloaded: stats.overloaded,
            errors: stats.errors,
        });
        OpSample {
            wall_s: run.wall_s,
            cpu_s: 0.0,
            steal_s: 0.0,
            digest: ramp_core::fnv1a_hex(&canonical),
            attempted: self.requests.len() as u64,
            failed: run.failed,
            work: self.requests.len() as f64,
            latencies_ms: run.latencies_ms,
            counters,
        }
    }

    fn probe_inputs(&self) -> ProbeInputs {
        ProbeInputs {
            profiles: self.benchmarks.clone(),
            nodes: NodeId::ALL.to_vec(),
            pipeline: self.engine().base_pipeline().clone(),
            keys: self.distinct_keys_in_order(),
            engine: self.engine().clone(),
        }
    }

    fn pinned_digest(&self) -> &'static str {
        self.pinned
    }
}

// ---------------------------------------------------------------------------
// fleet
// ---------------------------------------------------------------------------

pub struct Fleet {
    threads: usize,
    config: FleetConfig,
    engine: Option<QueryEngine>,
    pinned: &'static str,
}

/// Population digest of gzip × 5 nodes × 1M chips at the default seed.
pub const FLEET_DIGEST: &str = "3a5507c773927503";

impl Fleet {
    pub fn new(seed: u64, threads: usize) -> Self {
        Self::with_chips(seed, threads, FLEET_CHIPS, FLEET_DIGEST)
    }

    pub fn with_chips(seed: u64, threads: usize, chips: u64, pinned: &'static str) -> Self {
        Fleet {
            threads,
            config: FleetConfig {
                benchmark: FLEET_BENCHMARK.to_string(),
                nodes: NodeId::ALL.to_vec(),
                chips,
                seed,
                threads: Some(threads),
                ..FleetConfig::default()
            },
            engine: None,
            pinned,
        }
    }

    fn engine(&self) -> &QueryEngine {
        self.engine
            .as_ref()
            .expect("setup ran before the first operation")
    }
}

impl Workload for Fleet {
    fn setup(&mut self) {
        clear_timing_cache();
        let engine = QueryEngine::calibrate(&quick_config(self.threads, Some(&[FLEET_BENCHMARK])))
            .expect("calibration runs");
        // Building every node's anchor once fills the timing cache, so
        // measured runs spend their time sampling chips.
        for &node in &self.config.nodes {
            let query = engine
                .query(FLEET_BENCHMARK, node)
                .expect("known benchmark");
            engine.population_anchor(&query).expect("anchor builds");
        }
        self.engine = Some(engine);
    }

    fn op(&mut self, tracer: &Tracer, parent: SpanId) -> OpSample {
        let probe = CounterProbe::start();
        let span = tracer.begin("op.run_fleet", parent, 0);
        let (results, wall_s) = timed(|| run_fleet(self.engine(), &self.config));
        tracer.end(span);
        let counters = probe.finish();
        let (digest, failed) = match &results {
            Ok(r) => (r.population_digest(), 0),
            Err(e) => (format!("error: {e}"), 1),
        };
        OpSample {
            wall_s,
            cpu_s: 0.0,
            steal_s: 0.0,
            digest,
            attempted: 1,
            failed,
            work: (self.config.chips * self.config.nodes.len() as u64) as f64,
            latencies_ms: Vec::new(),
            counters,
        }
    }

    fn probe_inputs(&self) -> ProbeInputs {
        let engine = self.engine().clone();
        let pipeline = engine.base_pipeline().clone();
        ProbeInputs {
            profiles: vec![spec::profile(FLEET_BENCHMARK).expect("known benchmark")],
            nodes: self.config.nodes.clone(),
            keys: self
                .config
                .nodes
                .iter()
                .map(|&node| Key {
                    benchmark: FLEET_BENCHMARK.to_string(),
                    node,
                    repeats: pipeline.trace_repeats,
                })
                .collect(),
            pipeline,
            engine,
        }
    }

    fn pinned_digest(&self) -> &'static str {
        self.pinned
    }
}

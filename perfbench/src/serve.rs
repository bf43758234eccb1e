//! The serve workloads: `serve-hot`, `serve-churn` and `serve-sharded`.
//!
//! Load is an open loop from one generator thread: requests are due on a
//! fixed schedule whatever the server does, and each request's latency is
//! timed from the moment it was due to the moment the generator saw its
//! response. The same thread polls every outstanding response between
//! submissions, so there are no per-client threads. All latencies here
//! are the benchmark's own wall clock; the sharded tier's
//! `RequestTiming.extract_ms` includes modelled halo time, which the
//! benchmark reports apart, priced with `Interconnect` over `HaloStats`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use tlpgnn::multi_gpu::Interconnect;
use tlpgnn::{GnnModel, GnnNetwork, NativeEngine};
use tlpgnn_graph::{generators, subgraph, Csr, DeltaGraph, GraphEpoch};
use tlpgnn_serve::{
    GnnServer, GraphMutation, Request, Response, ResponseHandle, ServeConfig, ServeError,
    ShardedConfig, ShardedServer, ZipfSampler,
};
use tlpgnn_shard::HaloStats;
use tlpgnn_tensor::Matrix;

use crate::common::*;

/// The serve graph: sparse, and with a milder R-MAT skew than Graph500's
/// (0.57, 0.19, 0.19, 0.05). Over Zipf-drawn targets its 3-hop receptive
/// fields hold ~200 edges at the median and ~1000 at p99, steady from seed
/// to seed. Under the skew (0.45, 0.22, 0.22, 0.11) at 20k / 60k the p99
/// field held 8-11k edges depending on the seed, 30 times the median, so
/// the latency percentiles followed how many of the few heaviest fields a
/// run happened to draw.
const VERTICES: usize = 20_000;
const EDGES: usize = 80_000;
const RMAT_PROBS: (f64, f64, f64, f64) = (0.35, 0.25, 0.25, 0.15);
/// The serve graph is the workload's fixed dataset; `--seed` draws the
/// features, the weights and the traffic. The latency tail follows the
/// few heaviest receptive fields, which move with the graph, so a graph
/// drawn per seed would swamp run-to-run differences of the program.
const GRAPH_SEED: u64 = 1;
const FEAT: usize = 16;
const HIDDEN: usize = 16;
const CLASSES: usize = 8;
/// Server workers (single device) and shards (sharded tier).
const WORKERS: usize = 2;
/// Feature-cache rows, split evenly over the shards when sharded.
const CACHE_ROWS: usize = 512;
/// The latency limit: `SloSpec::default()`'s p99 target.
const SLO_P99_MS: f64 = 250.0;
/// The nominal phase issues at least this many operations.
const MIN_NOMINAL: usize = 1000;
/// Share of `--seconds` at `nominal`, unscored, before measuring: fills
/// the cache.
const WARM_SHARE: f64 = 0.1;
/// Share of `--seconds` spent on each ladder rung. The scored nominal
/// phase gets what warm-up and ladder leave: its p99 rests on the few
/// slowest of its requests, so it gets the most.
const RUNG_SHARE: f64 = 0.05;
/// A scored phase whose generator issued half its operations later than
/// this fell behind its schedule, and the run is invalid. A generator
/// that keeps up issues most operations within microseconds of their due
/// time; host scheduling hiccups it recovers from show in the tail
/// (`gen.late_p99_ms`), and their delay is charged to the requests, since
/// latency is timed from the due time.
const LATE_LIMIT_MS: f64 = 5.0;
/// Outstanding responses are abandoned (counted failed) after this.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// serve-churn responses replayed at their pinned epoch per phase.
const CHURN_CHECKS: usize = 120;
/// Targets in the batch the engine probe simulates: enough that its
/// receptive field, and so its cost, varies little with the seed. Over
/// ten seeds `sim_device_ms` moved by 0.5% (IQR / median) with 1024
/// targets, and by 6-10% with 256.
const PROBE_BATCH: usize = 1024;
/// Rank-to-vertex stride (coprime with `VERTICES`) of the popularity
/// map, rank `r` to vertex `(r * RANK_STRIDE + offset) % VERTICES` with a
/// fixed offset drawn from [`GRAPH_SEED`]. Like the graph, which vertices
/// are popular is part of the dataset; `--seed` draws the request sequence
/// over it. Without the offset, rank 0 is vertex 0, R-MAT's largest hub,
/// and how often the costliest receptive field is requested decides p99.
const RANK_STRIDE: u64 = 7919;

/// One serve workload: traffic mix, frozen rates, and deployment shape.
pub struct Spec {
    pub name: &'static str,
    /// Zipf exponent of target popularity.
    pub zipf: f64,
    /// One `GraphMutation` batch every this many operations (0: none).
    pub mutate_every: usize,
    /// One `compact_graph` every this many mutation batches.
    pub compact_every: usize,
    pub sharded: bool,
    /// Requests per second at which latency is reported.
    pub nominal_rps: f64,
    /// Rates above nominal, ascending, for `max_rps`.
    pub ladder: &'static [f64],
}

pub const HOT: Spec = Spec {
    name: "serve-hot",
    zipf: 1.1,
    mutate_every: 0,
    compact_every: 0,
    sharded: false,
    nominal_rps: 200.0,
    ladder: &[400.0, 800.0, 1200.0, 1400.0],
};

pub const CHURN: Spec = Spec {
    name: "serve-churn",
    zipf: 0.6,
    mutate_every: 20,
    compact_every: 20,
    sharded: false,
    nominal_rps: 100.0,
    ladder: &[200.0, 300.0, 400.0, 500.0],
};

pub const SHARDED: Spec = Spec {
    name: "serve-sharded",
    zipf: 1.1,
    mutate_every: 0,
    compact_every: 0,
    sharded: true,
    nominal_rps: 200.0,
    ladder: &[400.0, 800.0, 1000.0, 1200.0],
};

enum Server {
    Single(GnnServer),
    Sharded(ShardedServer),
}

/// The counters the benchmark reads from either server's stats.
#[derive(Default)]
struct Stats {
    rejected: u64,
    retries: u64,
    deadline_exceeded: u64,
    cache_hits: u64,
    cache_misses: u64,
    computed_targets: u64,
    mutations: u64,
    mutation_evictions: u64,
    per_shard_completed: Vec<u64>,
    halo: HaloStats,
}

impl Stats {
    fn since(&self, before: &Stats) -> Stats {
        let mut halo = self.halo;
        halo.fetch_batches -= before.halo.fetch_batches;
        halo.fetched_rows -= before.halo.fetched_rows;
        halo.fetched_features -= before.halo.fetched_features;
        halo.fetched_bytes -= before.halo.fetched_bytes;
        halo.replica_hits -= before.halo.replica_hits;
        halo.local_hits -= before.halo.local_hits;
        halo.mirror_hits -= before.halo.mirror_hits;
        Stats {
            rejected: self.rejected - before.rejected,
            retries: self.retries - before.retries,
            deadline_exceeded: self.deadline_exceeded - before.deadline_exceeded,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            computed_targets: self.computed_targets - before.computed_targets,
            mutations: self.mutations - before.mutations,
            mutation_evictions: self.mutation_evictions - before.mutation_evictions,
            per_shard_completed: self
                .per_shard_completed
                .iter()
                .zip(&before.per_shard_completed)
                .map(|(a, b)| a - b)
                .collect(),
            halo,
        }
    }
}

impl Server {
    fn start(spec: &Spec, g: Csr, x: Matrix, net: GnnNetwork) -> Self {
        if spec.sharded {
            let cfg = ShardedConfig {
                shards: WORKERS,
                max_batch: ServeConfig::default().max_batch,
                cache_capacity: CACHE_ROWS / WORKERS,
                metrics_prefix: "perfbench".to_string(),
                ..ShardedConfig::default()
            };
            Server::Sharded(ShardedServer::start(cfg, g, x, net))
        } else {
            let cfg = ServeConfig {
                workers: WORKERS,
                cache_capacity: CACHE_ROWS,
                metrics_prefix: "perfbench".to_string(),
                ..ServeConfig::default()
            };
            Server::Single(GnnServer::start(cfg, g, x, net))
        }
    }

    fn submit(&self, r: Request) -> Result<ResponseHandle, ServeError> {
        match self {
            Server::Single(s) => s.submit(r),
            Server::Sharded(s) => s.submit(r),
        }
    }

    fn single(&self) -> &GnnServer {
        match self {
            Server::Single(s) => s,
            Server::Sharded(_) => panic!("mutations run only on the single-device server"),
        }
    }

    fn stats(&self) -> Stats {
        match self {
            Server::Single(s) => {
                let st = s.stats();
                Stats {
                    rejected: st.rejected,
                    retries: st.retries,
                    deadline_exceeded: st.deadline_exceeded,
                    cache_hits: st.cache_hits,
                    cache_misses: st.cache_misses,
                    computed_targets: st.computed_targets,
                    mutations: st.mutations,
                    mutation_evictions: st.mutation_evictions,
                    per_shard_completed: vec![st.completed],
                    halo: HaloStats::default(),
                }
            }
            Server::Sharded(s) => {
                let st = s.stats();
                Stats {
                    rejected: st.rejected,
                    retries: st.retries + st.halo_retries,
                    deadline_exceeded: st.deadline_exceeded,
                    cache_hits: st.cache_hits,
                    cache_misses: st.cache_misses,
                    computed_targets: st.computed_targets,
                    mutations: 0,
                    mutation_evictions: 0,
                    per_shard_completed: st.per_shard_completed,
                    halo: st.halo,
                }
            }
        }
    }

    fn shutdown(self) {
        match self {
            Server::Single(s) => {
                s.shutdown();
            }
            Server::Sharded(s) => {
                s.shutdown();
            }
        }
    }
}

enum Op {
    Read(u32),
    Mutate(Vec<GraphMutation>),
    Compact,
}

/// The seeded operation stream: Zipf-popular single-vertex reads, with a
/// mutation batch every `mutate_every` operations and a compaction every
/// `compact_every` batches. Mutations touch uniformly drawn vertices.
struct Ops {
    zipf: ZipfSampler,
    rng: Rng,
    offset: u64,
    mutate_every: usize,
    compact_every: usize,
    issued: usize,
    batches: usize,
    compact_due: bool,
}

impl Ops {
    fn new(spec: &Spec, seed: u64) -> Self {
        Self {
            zipf: ZipfSampler::new(VERTICES, spec.zipf, seed ^ 0x66),
            rng: Rng::new(seed ^ 0x77),
            offset: Rng::new(GRAPH_SEED).below(VERTICES) as u64,
            mutate_every: spec.mutate_every,
            compact_every: spec.compact_every,
            issued: 0,
            batches: 0,
            compact_due: false,
        }
    }

    fn popular(&mut self) -> u32 {
        let rank = self.zipf.sample() as u64;
        ((rank * RANK_STRIDE + self.offset) % VERTICES as u64) as u32
    }

    fn next(&mut self) -> Op {
        if std::mem::take(&mut self.compact_due) {
            return Op::Compact;
        }
        self.issued += 1;
        if self.mutate_every == 0 || !self.issued.is_multiple_of(self.mutate_every) {
            return Op::Read(self.popular());
        }
        self.batches += 1;
        self.compact_due = self.batches.is_multiple_of(self.compact_every);
        let features = (0..FEAT).map(|_| self.rng.unit_f32()).collect();
        Op::Mutate(vec![
            GraphMutation::InsertEdge {
                src: self.rng.below(VERTICES) as u32,
                dst: self.rng.below(VERTICES) as u32,
            },
            GraphMutation::InsertEdge {
                src: self.rng.below(VERTICES) as u32,
                dst: self.rng.below(VERTICES) as u32,
            },
            GraphMutation::SetFeatures {
                vertex: self.rng.below(VERTICES) as u32,
                features,
            },
        ])
    }
}

/// The benchmark's own copy of the mutated graph: a `DeltaGraph` fed the
/// same batches as the server, with an O(1) snapshot kept per epoch.
struct Mirror {
    graph: DeltaGraph,
    snaps: HashMap<u64, GraphEpoch>,
    /// Server epochs that disagreed with the mirror's.
    epoch_mismatches: u64,
}

impl Mirror {
    fn new(g: Csr) -> Self {
        let graph = DeltaGraph::new(g);
        let snaps = HashMap::from([(graph.epoch(), graph.snapshot())]);
        Self {
            graph,
            snaps,
            epoch_mismatches: 0,
        }
    }

    fn apply(&mut self, batch: &[GraphMutation], server_epoch: u64) {
        for m in batch {
            match m {
                GraphMutation::InsertEdge { src, dst } => {
                    self.graph.insert_edge(*src, *dst);
                }
                GraphMutation::SetFeatures { vertex, features } => {
                    self.graph.set_features(*vertex, features.clone())
                }
                GraphMutation::InsertVertex { features } => {
                    self.graph.insert_vertex(features.clone());
                }
            }
        }
        if self.graph.epoch() != server_epoch {
            self.epoch_mismatches += 1;
        }
        self.snaps.insert(self.graph.epoch(), self.graph.snapshot());
    }
}

/// One answered (or failed) read.
struct Read {
    /// Index of the operation in its phase, in due order.
    seq: usize,
    target: u32,
    /// Due time to response, ms; infinite when the request failed.
    latency_ms: f64,
    /// Submitted inside a span (traced runs trace every other request).
    traced: bool,
    outcome: Result<Response, ServeError>,
}

impl Read {
    /// Served in full, unflagged.
    fn ok(&self) -> Option<&Response> {
        self.outcome.as_ref().ok().filter(|r| !r.degraded.any())
    }

    /// Latency as the limit sees it: failed and flagged responses miss.
    fn slo_latency(&self) -> f64 {
        if self.ok().is_some() {
            self.latency_ms
        } else {
            f64::INFINITY
        }
    }
}

struct Phase {
    rate: f64,
    reads: Vec<Read>,
    late_ms: Vec<f64>,
    mutate_ms: Vec<f64>,
    compact_ms: Vec<f64>,
    /// Responses outstanding when the last operation was issued.
    backlog: usize,
    /// First due time to last response, s.
    wall_s: f64,
    before: Stats,
    after: Stats,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.reads.iter().map(Read::slo_latency).collect()
    }

    /// Percentile `q` of the latencies per [`WINDOW_S`] of due times,
    /// median over the windows.
    fn windowed(&self, q: f64) -> f64 {
        let mut in_order: Vec<(usize, f64)> = self
            .reads
            .iter()
            .map(|r| (r.seq, r.slo_latency()))
            .collect();
        in_order.sort_by_key(|&(seq, _)| seq);
        let lat: Vec<f64> = in_order.into_iter().map(|(_, l)| l).collect();
        windowed_percentile(&lat, (self.rate * WINDOW_S).round() as usize, q)
    }

    /// Meets the limit without a growing backlog.
    fn passes(&self) -> bool {
        percentile(&self.latencies(), 0.99) <= SLO_P99_MS
            && (self.backlog as f64) <= self.rate * SLO_P99_MS / 1e3
    }

    /// Unflagged responses within the limit per second of the phase.
    fn goodput(&self) -> f64 {
        let good = self
            .reads
            .iter()
            .filter(|r| r.slo_latency() <= SLO_P99_MS)
            .count();
        good as f64 / self.wall_s
    }

    fn stats(&self) -> Stats {
        self.after.since(&self.before)
    }
}

/// A submitted read awaiting its response.
struct Pending {
    seq: usize,
    target: u32,
    due: Instant,
    traced: bool,
    handle: ResponseHandle,
}

/// Move every answered request from `pending` to `reads`, stamped now.
fn poll(pending: &mut Vec<Pending>, reads: &mut Vec<Read>) {
    let now = Instant::now();
    let mut i = 0;
    while i < pending.len() {
        match pending[i].handle.try_wait() {
            Some(outcome) => {
                let p = pending.swap_remove(i);
                let latency_ms = if outcome.is_ok() {
                    now.duration_since(p.due).as_secs_f64() * 1e3
                } else {
                    f64::INFINITY
                };
                reads.push(Read {
                    seq: p.seq,
                    target: p.target,
                    latency_ms,
                    traced: p.traced,
                    outcome,
                });
            }
            None => i += 1,
        }
    }
}

/// Issue `count` operations at `rate` per second, on schedule, and wait
/// for every response. With `spans` enabled, every other operation is
/// traced, so traced and untraced requests share the same cache and load
/// and their latency difference is the tracing overhead.
fn run_phase(
    server: &Server,
    ops: &mut Ops,
    rate: f64,
    count: usize,
    spans: &mut Spans,
    mut mirror: Option<&mut Mirror>,
) -> Phase {
    let before = server.stats();
    let mut quiet = Spans::new(false);
    let mut pending: Vec<Pending> = Vec::new();
    let mut reads = Vec::with_capacity(count);
    let (mut late_ms, mut mutate_ms, mut compact_ms) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    for k in 0..count {
        let due = start + Duration::from_secs_f64(k as f64 / rate);
        // Spin, yielding, rather than sleep between polls: a sleeping
        // thread runs again when the host gets round to waking it, which
        // on a shared host can be milliseconds late, and that delay would
        // land in every latency the generator times.
        loop {
            poll(&mut pending, &mut reads);
            let now = Instant::now();
            if now >= due {
                late_ms.push(now.duration_since(due).as_secs_f64() * 1e3);
                break;
            }
            std::thread::yield_now();
        }
        let traced = spans.enabled() && k % 2 == 0;
        let sp = if traced { &mut *spans } else { &mut quiet };
        match ops.next() {
            Op::Read(target) => {
                match sp.span("serve.submit", |_| {
                    server.submit(Request::new(vec![target]))
                }) {
                    Ok(handle) => pending.push(Pending {
                        seq: k,
                        target,
                        due,
                        traced,
                        handle,
                    }),
                    Err(e) => reads.push(Read {
                        seq: k,
                        target,
                        latency_ms: f64::INFINITY,
                        traced,
                        outcome: Err(e),
                    }),
                }
            }
            Op::Mutate(batch) => {
                let t = Instant::now();
                let res = sp.span("serve.mutate", |_| server.single().mutate(&batch));
                mutate_ms.push(ms_since(t));
                let epoch = res.expect("generated mutations are valid");
                if let Some(m) = mirror.as_deref_mut() {
                    m.apply(&batch, epoch);
                }
            }
            Op::Compact => {
                let t = Instant::now();
                sp.span("serve.compact_graph", |_| server.single().compact_graph());
                compact_ms.push(ms_since(t));
            }
        }
    }
    let backlog = pending.len();
    let drain_start = Instant::now();
    while !pending.is_empty() && drain_start.elapsed() < DRAIN_LIMIT {
        std::thread::yield_now();
        poll(&mut pending, &mut reads);
    }
    for p in pending.drain(..) {
        reads.push(Read {
            seq: p.seq,
            target: p.target,
            latency_ms: f64::INFINITY,
            traced: p.traced,
            outcome: Err(ServeError::WorkerLost),
        });
    }
    Phase {
        rate,
        reads,
        late_ms,
        mutate_ms,
        compact_ms,
        backlog,
        wall_s: start.elapsed().as_secs_f64(),
        before,
        after: server.stats(),
    }
}

/// Unflagged responses whose row differs from the full-graph reference.
fn wrong_vs_reference(phase: &Phase, reference: &Matrix) -> u64 {
    phase
        .reads
        .iter()
        .filter_map(|r| r.ok().map(|resp| (r.target, resp)))
        .filter(|(t, resp)| max_abs_diff(resp.outputs.row(0), reference.row(*t as usize)) > TOL)
        .count() as u64
}

/// serve-churn: replay up to [`CHURN_CHECKS`] unflagged responses,
/// evenly spread over the phase, at their pinned epoch on the mirror.
fn wrong_at_epoch(phase: &Phase, mirror: &Mirror, x: &Matrix, net: &GnnNetwork) -> (u64, u64) {
    let ok: Vec<(u32, &Response)> = phase
        .reads
        .iter()
        .filter_map(|r| r.ok().map(|resp| (r.target, resp)))
        .collect();
    let step = ok.len().div_ceil(CHURN_CHECKS).max(1);
    let engine = NativeEngine::default();
    let hops = net.receptive_hops();
    let (mut checked, mut wrong) = (0, 0);
    for &(t, resp) in ok.iter().step_by(step) {
        checked += 1;
        let Some(snap) = mirror.snaps.get(&resp.epoch) else {
            wrong += 1;
            continue;
        };
        let ego = snap.ego_graph(&[t], hops);
        let ego_x = ego_features(&ego, FEAT, |v| {
            snap.feature_row(v).unwrap_or_else(|| x.row(v as usize))
        });
        let out = native_forward(&mut Spans::new(false), &engine, net, &ego.csr, &ego_x);
        wrong += u64::from(max_abs_diff(out.row(0), resp.outputs.row(0)) > TOL);
    }
    (checked, wrong)
}

/// Per-batch means over responses: each response carries its batch's
/// size, so weighting a response by `1/batch_size` counts each batch
/// once. Returns (batches, Σ extract_ms, Σ compute_ms) over batches that
/// extracted.
fn batch_sums(phase: &Phase) -> (f64, f64, f64) {
    let (mut batches, mut extract, mut compute) = (0.0, 0.0, 0.0);
    for resp in phase.reads.iter().filter_map(|r| r.outcome.as_ref().ok()) {
        if resp.timing.extract_ms > 0.0 || resp.timing.compute_ms > 0.0 {
            let w = 1.0 / resp.timing.batch_size.max(1) as f64;
            batches += w;
            extract += w * resp.timing.extract_ms;
            compute += w * resp.timing.compute_ms;
        }
    }
    (batches, extract, compute)
}

/// Flagged-degraded responses / completed responses.
fn degraded_frac(phase: &Phase) -> f64 {
    let ok: Vec<&Response> = phase
        .reads
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .collect();
    ok.iter().filter(|r| r.degraded.any()).count() as f64 / ok.len().max(1) as f64
}

fn build(seed: u64) -> (Csr, Matrix, GnnNetwork) {
    (
        generators::rmat(VERTICES, EDGES, RMAT_PROBS, GRAPH_SEED),
        Matrix::random(VERTICES, FEAT, 1.0, seed ^ 0x11),
        GnnNetwork::two_layer(|_| GnnModel::Gcn, FEAT, HIDDEN, CLASSES, seed ^ 0x22),
    )
}

/// The ego graph and features of the first [`PROBE_BATCH`] targets the
/// generator draws for this seed.
fn first_batch(spec: &Spec, seed: u64, g: &Csr, x: &Matrix, hops: usize) -> (Csr, Matrix) {
    let mut ops = Ops::new(spec, seed);
    let mut targets = Vec::with_capacity(PROBE_BATCH);
    while targets.len() < PROBE_BATCH {
        if let Op::Read(t) = ops.next() {
            targets.push(t);
        }
    }
    let ego = subgraph::ego_graph(g, &targets, hops);
    let ego_x = ego_features(&ego, x.cols(), |v| x.row(v as usize));
    (ego.csr, ego_x)
}

fn count_at(rate: f64, share: f64, seconds: f64) -> usize {
    (rate * share * seconds).round().max(1.0) as usize
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let mut spans = Spans::new(trace);

    // Set-up several times; keep the last server.
    let (mut setup, mut graph_s, mut start_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut server = None;
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            Server::shutdown(s);
        }
        let t = Instant::now();
        let (g, x, net) = build(seed);
        graph_s.push(t.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let s = spans.span("serve.start", |_| {
            Server::start(spec, g.clone(), x.clone(), net.clone())
        });
        start_s.push(t1.elapsed().as_secs_f64());
        setup.push(t.elapsed().as_secs_f64());
        server = Some(s);
        inputs = Some((g, x, net));
    }
    let server = server.expect("started at least once");
    let (g, x, net) = inputs.expect("built at least once");
    let mut mirror = (spec.mutate_every > 0).then(|| Mirror::new(g.clone()));
    let mut ops = Ops::new(spec, seed);

    // The full-graph native forward is the reference the responses are
    // checked against; `sim_device_ms` is the simulated forward of one
    // batch: the union receptive field of the first requests the
    // generator draws.
    let (batch_g, batch_x) = first_batch(spec, seed, &g, &x, net.receptive_hops());
    let mut probe = Probe::new(&net, (&g, &x), (&batch_g, &batch_x));
    probe.native();
    probe.sim(&mut spans);

    // Warm-up, the nominal phase, then every ladder rung (a traced run
    // stops after the nominal phase).
    let mut quiet = Spans::new(false);
    let nominal = spec.nominal_rps;
    let nominal_share = 1.0 - WARM_SHARE - RUNG_SHARE * spec.ladder.len() as f64;
    let mut plan = vec![(nominal, count_at(nominal, WARM_SHARE, seconds))];
    plan.push((
        nominal,
        count_at(nominal, nominal_share, seconds).max(MIN_NOMINAL),
    ));
    if !trace {
        plan.extend(
            spec.ladder
                .iter()
                .map(|&r| (r, count_at(r, RUNG_SHARE, seconds))),
        );
    }
    let mut phases = Vec::new();
    for (i, &(rate, count)) in plan.iter().enumerate() {
        let sp = if i == 1 { &mut spans } else { &mut quiet };
        phases.push(run_phase(
            &server,
            &mut ops,
            rate,
            count,
            sp,
            mirror.as_mut(),
        ));
    }
    server.shutdown();
    let warm = phases.remove(0);

    // Checks: every unflagged response against the full-graph reference
    // (serve-hot, serve-sharded), or replayed at its pinned epoch
    // (serve-churn).
    let native_out = probe.native_out.as_ref().expect("forwarded once");
    let (mut checked, mut wrong) = (0u64, 0u64);
    for p in std::iter::once(&warm).chain(phases.iter()) {
        match &mirror {
            None => {
                checked += p.reads.iter().filter(|r| r.ok().is_some()).count() as u64;
                wrong += wrong_vs_reference(p, native_out);
            }
            Some(m) => {
                let (c, w) = wrong_at_epoch(p, m, &x, &net);
                checked += c;
                wrong += w;
            }
        }
    }
    let epoch_mismatches = mirror.as_ref().map_or(0, |m| m.epoch_mismatches);
    let sim_wrong = probe.sim_wrong_rows();
    let unflagged_wrong = wrong + epoch_mismatches + u64::from(sim_wrong > 0);

    // Failures count at nominal: the ladder overloads the server on
    // purpose, and its refusals count only as misses of the limit.
    let nominal_phase = &phases[0];
    let refused = nominal_phase
        .reads
        .iter()
        .filter(|r| r.outcome.is_err())
        .count() as u64;
    report.attempted = nominal_phase.reads.len() as u64;
    report.failed = refused + unflagged_wrong;
    report.unflagged_wrong = unflagged_wrong;
    let late_p50 = median(&nominal_phase.late_ms);
    if late_p50 > LATE_LIMIT_MS {
        report.invalid = Some(format!(
            "generator fell behind: median lateness {late_p50:.2} ms > {LATE_LIMIT_MS} ms"
        ));
    }
    let best = phases
        .iter()
        .filter(|p| p.passes())
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
        .unwrap_or(nominal_phase);
    report.note(format!(
        "{}: nominal {} /s, ladder {:?} /s, limit p99 <= {SLO_P99_MS} ms; responses checked {checked}, \
         wrong {wrong}, epoch mismatches {epoch_mismatches}; simulated reference rows wrong {sim_wrong}",
        spec.name, nominal, spec.ladder,
    ));
    for p in &phases {
        report.note(format!(
            "phase {} /s: {} reads, p50 {:.2} ms, p99 {:.2} ms, windowed p99 {:.2} ms, backlog {}, goodput {:.1} /s, late p50 {:.2} p99 {:.2} ms, {}",
            p.rate,
            p.reads.len(),
            percentile(&p.latencies(), 0.5),
            percentile(&p.latencies(), 0.99),
            p.windowed(0.99),
            p.backlog,
            p.goodput(),
            median(&p.late_ms),
            percentile(&p.late_ms, 0.99),
            if p.passes() { "meets the limit" } else { "misses the limit" },
        ));
    }
    if let Some(why) = &report.invalid {
        report.note(why.clone());
    }

    let lat = nominal_phase.latencies();
    if !trace {
        EndToEnd {
            setup_s: median(&setup),
            peak_rss_mb: peak_rss_mb(),
            sim_device_ms: probe.sim_profile().gpu_time_ms,
            latency_ms: percentile(&lat, 0.5),
            p50_ms: percentile(&lat, 0.5),
            p99_ms: nominal_phase.windowed(0.99),
            max_rps: best.goodput(),
        }
        .push_into(&mut report);
        report.push_table_only(
            "failed_frac",
            report.failed as f64 / report.attempted.max(1) as f64,
            "ratio",
            Clock::Count,
        );
        report.push_table_only(
            "degraded_frac",
            degraded_frac(nominal_phase),
            "ratio",
            Clock::Count,
        );
        if spec.mutate_every > 0 {
            report.push_table_only(
                "mutate_ms",
                median(&nominal_phase.mutate_ms),
                "ms",
                Clock::Wall,
            );
        }
        return report;
    }

    let traced = nominal_phase;
    let st = traced.stats();
    let ok: Vec<&Response> = traced
        .reads
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .collect();
    let queue: Vec<f64> = ok.iter().map(|r| r.timing.queue_ms).collect();
    let (batches, extract_sum, compute_sum) = batch_sums(traced);
    let halo_ms =
        Interconnect::default().batched_transfer_ms(st.halo.fetch_batches, st.halo.fetched_bytes);
    let lookups =
        st.halo.local_hits + st.halo.replica_hits + st.halo.mirror_hits + st.halo.remote_lookups();
    let completed = ok.len().max(1) as f64;

    // Replay the extraction of drawn targets to size the receptive fields.
    let hops = net.receptive_hops();
    let drawn: Vec<u32> = traced.reads.iter().map(|r| r.target).take(200).collect();
    let latest = mirror.as_ref().map(|m| m.graph.snapshot());
    let (mut ego_v, mut ego_e) = (Vec::new(), Vec::new());
    for &t in &drawn {
        let ego = spans.span("graph.ego_graph", |_| match &latest {
            Some(snap) => snap.ego_graph(&[t], hops),
            None => subgraph::ego_graph(&g, &[t], hops),
        });
        ego_v.push(ego.vertices.len() as f64);
        ego_e.push(ego.csr.num_edges() as f64);
    }

    // The serve path runs no native forward: the native.* and host.*
    // metrics stay 0 here.
    let (insts, traffic, host_ms) = sim_layer_counts(&mut spans, &net, &batch_g, &batch_x);
    let mut pl = PerLayer {
        graph_ego_ms: (extract_sum - halo_ms).max(0.0) / batches.max(1.0),
        graph_ego_vertices: mean(&ego_v),
        graph_ego_edges: mean(&ego_e),
        graph_compact_ms: if traced.compact_ms.is_empty() {
            0.0
        } else {
            median(&traced.compact_ms)
        },
        ..PerLayer::default()
    };
    pl.sim_launches = probe.sim_profile().kernel_launches as f64;
    pl.sim_warp_insts = insts as f64;
    pl.sim_dram_bytes = traffic as f64;
    pl.sim_host_ns_per_inst = host_ms * 1e6 / insts.max(1) as f64;
    pl.serve_queue_p50_ms = percentile(&queue, 0.5);
    pl.serve_queue_p99_ms = percentile(&queue, 0.99);
    pl.serve_batch_size = mean(
        &ok.iter()
            .map(|r| r.timing.batch_size as f64)
            .collect::<Vec<_>>(),
    );
    pl.serve_busy_frac =
        (extract_sum - halo_ms + compute_sum) / 1e3 / (WORKERS as f64 * traced.wall_s);
    pl.serve_compute_ms = compute_sum / batches.max(1.0);
    pl.serve_cache_hit_rate =
        st.cache_hits as f64 / (st.cache_hits + st.cache_misses).max(1) as f64;
    pl.serve_computed_per_miss = st.computed_targets as f64 / st.cache_misses.max(1) as f64;
    pl.serve_rejected = st.rejected as f64;
    pl.serve_retries = st.retries as f64;
    pl.serve_deadline_exceeded = st.deadline_exceeded as f64;
    pl.serve_evictions_per_mutation = st.mutation_evictions as f64 / st.mutations.max(1) as f64;
    pl.serve_degraded_frac = degraded_frac(traced);
    pl.serve_mutate_ms = if traced.mutate_ms.is_empty() {
        0.0
    } else {
        median(&traced.mutate_ms)
    };
    if spec.sharded {
        let per = &st.per_shard_completed;
        let mean_done = per.iter().sum::<u64>() as f64 / per.len().max(1) as f64;
        pl.shard_remote_frac = st.halo.remote_lookups() as f64 / lookups.max(1) as f64;
        pl.shard_replica_hit_frac = st.halo.replica_hits as f64 / lookups.max(1) as f64;
        pl.shard_halo_batches_per_req = st.halo.fetch_batches as f64 / completed;
        pl.shard_halo_bytes_per_req = st.halo.fetched_bytes as f64 / completed;
        pl.shard_halo_model_ms = halo_ms / completed;
        pl.shard_load_skew = *per.iter().max().unwrap_or(&0) as f64 / mean_done.max(1.0);
    }
    pl.setup_graph_s = median(&graph_s);
    pl.setup_start_s = median(&start_s);
    pl.gen_late_p99_ms = percentile(&traced.late_ms, 0.99);
    let p50_of = |on: bool| {
        let l: Vec<f64> = traced
            .reads
            .iter()
            .filter(|r| r.traced == on)
            .map(Read::slo_latency)
            .collect();
        percentile(&l, 0.5)
    };
    pl.telemetry_overhead_frac = p50_of(true) / p50_of(false) - 1.0;
    pl.push_into(&mut report);
    spans.write_summary();
    report
}

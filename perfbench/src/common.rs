//! Shared pieces of the benchmark: metric reports, percentiles, the span
//! recorder, peak memory, the host copy probe, and the native forward
//! that offline-gcn times and traces and both workload families check
//! outputs against.

use std::collections::BTreeMap;
use std::time::Instant;

use tlpgnn::{GnnNetwork, NativeEngine};
use tlpgnn_graph::{Csr, EgoGraph};
use tlpgnn_tensor::{activations, Matrix};

/// Which clock a number was read from. The benchmark never adds values
/// of different clocks together.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Measured host wall-clock time.
    Wall,
    /// gpu-sim cost model or `Interconnect` price.
    Modelled,
    /// An event or byte count, or a ratio of counts.
    Count,
    /// Bytes derived from tensor and graph sizes.
    Computed,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Modelled => "modelled",
            Clock::Count => "count",
            Clock::Computed => "computed",
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
}

/// A workload's result: the JSON line the harness reads plus a table
/// naming each metric's clock.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    /// Errors, refusals and wrong answers.
    pub failed: u64,
    /// Wrong answers without a degradation flag; any makes the run fail.
    pub unflagged_wrong: u64,
    /// Why the run is not valid (e.g. the generator fell behind).
    pub invalid: Option<String>,
    pub metrics: Vec<Metric>,
    /// End-to-end numbers printed in the table but not in the JSON line:
    /// they read 0 in a healthy run, exist on one workload only, or follow
    /// the host's load (`p50_ms` offline, `p99_ms`), so no bound can be set
    /// as a share of their median.
    pub table_only: Vec<Metric>,
    /// Informational lines printed above the metric table.
    pub notes: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, clock: Clock) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            clock,
        });
    }

    /// A metric printed in the table only (see [`Report::table_only`]).
    pub fn push_table_only(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        clock: Clock,
    ) {
        self.table_only.push(Metric {
            name,
            value,
            unit,
            clock,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// No unflagged wrong answer, a valid run, and every metric measured.
    pub fn correct(&self) -> bool {
        self.unflagged_wrong == 0
            && self.invalid.is_none()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Print the table, then the JSON result as the last stdout line.
    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for m in self.metrics.iter().chain(&self.table_only) {
            println!(
                "{:<28} {:>16.6} {:<6} {}",
                m.name,
                m.value,
                m.unit,
                m.clock.name()
            );
        }
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            metrics.push_str(&format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics
        );
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; NaN when
/// empty. Non-finite samples (misses) sort last.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Seconds of samples per window of [`windowed_percentile`], as `p99_ms`
/// takes it.
pub const WINDOW_S: f64 = 2.5;

/// Percentile `q` of each run of `per_window` consecutive samples (the
/// last window takes the remainder), then the median over windows. A
/// host stall lasts milliseconds and comes a few times a minute, so it
/// sets the tail of the window it falls in, but not this median.
pub fn windowed_percentile(in_order: &[f64], per_window: usize, q: f64) -> f64 {
    let windows = (in_order.len() / per_window.max(1)).max(1);
    let per_window_q: Vec<f64> = (0..windows)
        .map(|w| {
            let lo = w * in_order.len() / windows;
            let hi = (w + 1) * in_order.len() / windows;
            percentile(&in_order[lo..hi], q)
        })
        .collect();
    median(&per_window_q)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// splitmix64: the benchmark's own seeded stream for drawing inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
    }
}

/// Spans recorded by the benchmark around its calls into the program.
/// Disabled, a span costs nothing but the closure call; the untraced
/// runs that give end-to-end numbers use a disabled recorder.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    records: Vec<SpanRecord>,
    open: Vec<usize>,
}

pub struct SpanRecord {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            records: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.records.len();
        self.records.push(SpanRecord {
            name,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.records[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Durations, ms, of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.name == name)
            .map(SpanRecord::ms)
            .collect()
    }

    /// Write per-name count, total and self time (total minus child
    /// spans), ms, to stderr.
    pub fn write_summary(&self) {
        let mut child_ms = vec![0.0; self.records.len()];
        for r in &self.records {
            if let Some(p) = r.parent {
                child_ms[p] += r.ms();
            }
        }
        let mut by_name: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (r, child) in self.records.iter().zip(child_ms) {
            let e = by_name.entry(r.name).or_default();
            e.0 += 1;
            e.1 += r.ms();
            e.2 += r.ms() - child;
        }
        eprintln!("span summary: name count total_ms self_ms");
        for (name, (n, total, own)) in by_name {
            eprintln!("  {name:<24} {n:>7} {total:>12.3} {own:>12.3}");
        }
    }
}

/// The full-graph native forward of a GCN network, written out layer by
/// layer so the traced run can put a span around each `NativeEngine::conv`
/// and `Linear::forward` call. It computes exactly what
/// `GnnNetwork::forward_with` computes with native convolutions.
pub fn native_forward(
    spans: &mut Spans,
    engine: &NativeEngine,
    net: &GnnNetwork,
    g: &Csr,
    x: &Matrix,
) -> Matrix {
    spans.span("native.forward", |s| {
        let mut h = x.clone();
        for layer in &net.layers {
            assert!(
                matches!(layer.combine, tlpgnn::Combine::Replace),
                "the benchmark networks are GCN stacks"
            );
            let agg = s.span("native.conv", |_| engine.conv(&layer.model, g, &h));
            h = s.span("tensor.linear", |_| layer.linear.forward(&agg));
            if layer.relu {
                s.span("tensor.relu", |_| activations::relu(&mut h));
            }
        }
        s.span("tensor.log_softmax", |_| {
            activations::log_softmax_rows(&mut h)
        });
        h
    })
}

/// STREAM-style copy bandwidth of this host, GB/s (bytes read plus
/// bytes written, best of a few passes over a 64 MiB buffer).
pub fn host_copy_gbs() -> f64 {
    let n = 16 << 20;
    let src: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let mut dst = vec![0.0f32; n];
    let mut best = 0.0f64;
    for _ in 0..5 {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        let s = t.elapsed().as_secs_f64();
        std::hint::black_box(&dst);
        best = best.max((2 * n * 4) as f64 / s / 1e9);
    }
    best
}

/// Bytes one GCN aggregation gathers: a feature row per edge plus the
/// self row, and the normalisation scalars — derived from sizes.
pub fn gcn_gather_bytes(g: &Csr, feat: usize) -> f64 {
    let (n, m) = (g.num_vertices() as f64, g.num_edges() as f64);
    (m + n) * feat as f64 * 4.0 + (m + n) * 4.0 + n * feat as f64 * 4.0
}

/// The feature rows of an ego graph's vertices, in local-id order.
pub fn ego_features<'a>(ego: &EgoGraph, cols: usize, row: impl Fn(u32) -> &'a [f32]) -> Matrix {
    let mut out = Matrix::zeros(ego.vertices.len(), cols);
    for (l, &v) in ego.vertices.iter().enumerate() {
        out.row_mut(l).copy_from_slice(row(v));
    }
    out
}

/// Largest absolute difference between two rows.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

/// Absolute tolerance for comparing outputs of different engines or
/// summation orders; the repo's serving tests use the same bound.
pub const TOL: f32 = 1e-4;

/// The end-to-end metrics, printed by every untraced run. Each has a
/// meaning on every workload; `p50_ms` and `p99_ms` are in the table only.
/// See `perfbench/NOTES.md`.
#[derive(Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub sim_device_ms: f64,
    /// Serve: the median latency (`p50_ms`). Offline: the fastest forward.
    pub latency_ms: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub max_rps: f64,
}

impl EndToEnd {
    pub fn push_into(&self, r: &mut Report) {
        r.push("setup_s", self.setup_s, "s", Clock::Wall);
        r.push("peak_rss_mb", self.peak_rss_mb, "MB", Clock::Count);
        r.push("sim_device_ms", self.sim_device_ms, "ms", Clock::Modelled);
        r.push("latency_ms", self.latency_ms, "ms", Clock::Wall);
        r.push("max_rps", self.max_rps, "1/s", Clock::Wall);
        r.push_table_only("p50_ms", self.p50_ms, "ms", Clock::Wall);
        r.push_table_only("p99_ms", self.p99_ms, "ms", Clock::Wall);
    }
}

/// The per-layer metrics, printed by every traced run. A layer a
/// workload does not exercise reads 0.
#[derive(Default)]
pub struct PerLayer {
    pub graph_ego_ms: f64,
    pub graph_ego_vertices: f64,
    pub graph_ego_edges: f64,
    pub graph_compact_ms: f64,
    pub native_aggregate_ms: f64,
    pub native_gather_gbs: f64,
    pub native_gather_frac_of_copy: f64,
    pub host_copy_gbs: f64,
    pub tensor_combine_ms: f64,
    pub sim_launches: f64,
    pub sim_warp_insts: f64,
    pub sim_dram_bytes: f64,
    pub sim_host_ns_per_inst: f64,
    pub serve_queue_p50_ms: f64,
    pub serve_queue_p99_ms: f64,
    pub serve_batch_size: f64,
    pub serve_busy_frac: f64,
    pub serve_compute_ms: f64,
    pub serve_cache_hit_rate: f64,
    pub serve_computed_per_miss: f64,
    pub serve_rejected: f64,
    pub serve_retries: f64,
    pub serve_deadline_exceeded: f64,
    pub serve_evictions_per_mutation: f64,
    pub serve_degraded_frac: f64,
    pub serve_mutate_ms: f64,
    pub shard_remote_frac: f64,
    pub shard_replica_hit_frac: f64,
    pub shard_halo_batches_per_req: f64,
    pub shard_halo_bytes_per_req: f64,
    pub shard_halo_model_ms: f64,
    pub shard_load_skew: f64,
    pub setup_graph_s: f64,
    pub setup_start_s: f64,
    pub gen_late_p99_ms: f64,
    pub telemetry_overhead_frac: f64,
}

impl PerLayer {
    pub fn push_into(&self, r: &mut Report) {
        use Clock::*;
        r.push("graph.ego_ms", self.graph_ego_ms, "ms", Wall);
        r.push(
            "graph.ego_vertices",
            self.graph_ego_vertices,
            "count",
            Count,
        );
        r.push("graph.ego_edges", self.graph_ego_edges, "count", Count);
        r.push("graph.compact_ms", self.graph_compact_ms, "ms", Wall);
        r.push("native.aggregate_ms", self.native_aggregate_ms, "ms", Wall);
        r.push(
            "native.gather_gbs",
            self.native_gather_gbs,
            "GB/s",
            Computed,
        );
        r.push(
            "native.gather_frac_of_copy",
            self.native_gather_frac_of_copy,
            "ratio",
            Computed,
        );
        r.push("host.copy_gbs", self.host_copy_gbs, "GB/s", Wall);
        r.push("tensor.combine_ms", self.tensor_combine_ms, "ms", Wall);
        r.push("sim.launches", self.sim_launches, "count", Count);
        r.push("sim.warp_insts", self.sim_warp_insts, "count", Modelled);
        r.push("sim.dram_bytes", self.sim_dram_bytes, "bytes", Modelled);
        r.push(
            "sim.host_ns_per_inst",
            self.sim_host_ns_per_inst,
            "ns",
            Wall,
        );
        r.push("serve.queue_p50_ms", self.serve_queue_p50_ms, "ms", Wall);
        r.push("serve.queue_p99_ms", self.serve_queue_p99_ms, "ms", Wall);
        r.push("serve.batch_size", self.serve_batch_size, "count", Count);
        r.push("serve.busy_frac", self.serve_busy_frac, "ratio", Wall);
        r.push("serve.compute_ms", self.serve_compute_ms, "ms", Wall);
        r.push(
            "serve.cache_hit_rate",
            self.serve_cache_hit_rate,
            "ratio",
            Count,
        );
        r.push(
            "serve.computed_per_miss",
            self.serve_computed_per_miss,
            "ratio",
            Count,
        );
        r.push("serve.rejected", self.serve_rejected, "count", Count);
        r.push("serve.retries", self.serve_retries, "count", Count);
        r.push(
            "serve.deadline_exceeded",
            self.serve_deadline_exceeded,
            "count",
            Count,
        );
        r.push(
            "serve.evictions_per_mutation",
            self.serve_evictions_per_mutation,
            "ratio",
            Count,
        );
        r.push(
            "serve.degraded_frac",
            self.serve_degraded_frac,
            "ratio",
            Count,
        );
        r.push("serve.mutate_ms", self.serve_mutate_ms, "ms", Wall);
        r.push("shard.remote_frac", self.shard_remote_frac, "ratio", Count);
        r.push(
            "shard.replica_hit_frac",
            self.shard_replica_hit_frac,
            "ratio",
            Count,
        );
        r.push(
            "shard.halo_batches_per_req",
            self.shard_halo_batches_per_req,
            "count",
            Count,
        );
        r.push(
            "shard.halo_bytes_per_req",
            self.shard_halo_bytes_per_req,
            "bytes",
            Count,
        );
        r.push(
            "shard.halo_model_ms",
            self.shard_halo_model_ms,
            "ms",
            Modelled,
        );
        r.push("shard.load_skew", self.shard_load_skew, "ratio", Count);
        r.push("setup.graph_s", self.setup_graph_s, "s", Wall);
        r.push("setup.start_s", self.setup_start_s, "s", Wall);
        r.push("gen.late_p99_ms", self.gen_late_p99_ms, "ms", Wall);
        r.push(
            "telemetry.overhead_frac",
            self.telemetry_overhead_frac,
            "ratio",
            Wall,
        );
    }
}

/// The engine reference behind `sim_device_ms` and the output checks: a
/// native forward of one graph, and timed simulated V100 forwards of
/// another (or the same).
pub struct Probe<'a> {
    net: &'a GnnNetwork,
    g: &'a Csr,
    x: &'a Matrix,
    sim_g: &'a Csr,
    sim_x: &'a Matrix,
    engine: NativeEngine,
    sim: tlpgnn::TlpgnnEngine,
    pub native_out: Option<Matrix>,
    pub sim_host_ms: Vec<f64>,
    pub sim_out: Option<(Matrix, gpu_sim::OpProfile)>,
}

impl<'a> Probe<'a> {
    pub fn new(
        net: &'a GnnNetwork,
        (g, x): (&'a Csr, &'a Matrix),
        (sim_g, sim_x): (&'a Csr, &'a Matrix),
    ) -> Self {
        Self {
            net,
            g,
            x,
            sim_g,
            sim_x,
            engine: NativeEngine::default(),
            sim: tlpgnn::TlpgnnEngine::v100(),
            native_out: None,
            sim_host_ms: Vec::new(),
            sim_out: None,
        }
    }

    /// The native forward of the native graph.
    pub fn native(&mut self) {
        let out = native_forward(
            &mut Spans::new(false),
            &self.engine,
            self.net,
            self.g,
            self.x,
        );
        self.native_out = Some(out);
    }

    /// One timed simulated forward of the simulated graph.
    pub fn sim(&mut self, spans: &mut Spans) {
        let t = Instant::now();
        let (sim, net, g, x) = (&mut self.sim, self.net, self.sim_g, self.sim_x);
        let out = spans.span("sim.classify_forward", |_| sim.classify_forward(net, g, x));
        self.sim_host_ms.push(ms_since(t));
        self.sim_out = Some(out);
    }

    /// Modelled device time of the simulated forward; it does not vary
    /// between samples.
    pub fn sim_profile(&self) -> &gpu_sim::OpProfile {
        &self.sim_out.as_ref().expect("simulated at least once").1
    }

    /// Rows where the simulated output differs from a native forward of
    /// the same graph by more than [`TOL`].
    pub fn sim_wrong_rows(&self) -> usize {
        let (out, _) = self.sim_out.as_ref().expect("simulated at least once");
        let reference = match &self.native_out {
            Some(n) if std::ptr::eq(self.g, self.sim_g) => n.clone(),
            _ => native_forward(
                &mut Spans::new(false),
                &self.engine,
                self.net,
                self.sim_g,
                self.sim_x,
            ),
        };
        (0..self.sim_g.num_vertices())
            .filter(|&v| max_abs_diff(out.row(v), reference.row(v)) > TOL)
            .count()
    }
}

/// Simulated instruction and traffic counts of a forward, summed over
/// per-layer `layer_forward` profiles (the whole-network profile keeps
/// only time, launches and load/store bytes of its layers), and the host
/// time it took to simulate them.
pub fn sim_layer_counts(
    spans: &mut Spans,
    net: &GnnNetwork,
    g: &Csr,
    x: &Matrix,
) -> (u64, u64, f64) {
    let mut eng = tlpgnn::TlpgnnEngine::v100();
    let mut h = x.clone();
    let (mut insts, mut traffic) = (0u64, 0u64);
    let t = Instant::now();
    for layer in &net.layers {
        let (out, p) = spans.span("sim.layer_forward", |_| eng.layer_forward(layer, g, &h));
        insts += p.insts;
        traffic += p.total_traffic_bytes();
        h = out;
    }
    (insts, traffic, ms_since(t))
}

/// Per-layer numbers of the native engine from a traced recorder:
/// median conv time, median forward-minus-convs time, and the gather
/// bandwidth against this host's copy bandwidth.
pub fn native_layers(spans: &Spans, g: &Csr, feat: usize, layers: usize, pl: &mut PerLayer) {
    let conv = spans.durations("native.conv");
    let fwd = spans.durations("native.forward");
    let combine: Vec<f64> = fwd
        .iter()
        .enumerate()
        .map(|(i, f)| f - conv[i * layers..(i + 1) * layers].iter().sum::<f64>())
        .collect();
    pl.native_aggregate_ms = median(&conv);
    pl.tensor_combine_ms = median(&combine);
    pl.native_gather_gbs = gcn_gather_bytes(g, feat) / (pl.native_aggregate_ms / 1e3) / 1e9;
    pl.host_copy_gbs = host_copy_gbs();
    pl.native_gather_frac_of_copy = pl.native_gather_gbs / pl.host_copy_gbs;
}

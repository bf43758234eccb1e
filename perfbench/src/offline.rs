//! `offline-gcn`: full-graph 2-layer GCN inference (64→64→16) through the
//! native engine on an R-MAT graph small enough that a forward's tensors
//! stay in one core's L2 cache, and the same network and graph through the
//! simulated V100. Serving, sharding and extraction do no work here.

use std::time::Instant;

use tlpgnn::oracle::conv_reference;
use tlpgnn::{GnnModel, GnnNetwork, NativeEngine, NativeSchedule};
use tlpgnn_graph::{generators, subgraph, Csr};
use tlpgnn_tensor::Matrix;

use crate::common::*;

/// Each 64-wide feature matrix of the graph is 512 KiB, so a layer's input
/// and output fit in one core's 2 MiB L2. Forwards of larger graphs are
/// bound by DRAM, which a shared host's other tenants load too: on a
/// 2-vCPU guest the median forward of a 200k / 2M graph spread by 0.10-0.28
/// from run to run, of a 20k / 200k graph by 0.18, while L2-resident work
/// stayed within 2%.
const VERTICES: usize = 2_000;
const EDGES: usize = 20_000;
const FEAT: usize = 64;
const HIDDEN: usize = 64;
const CLASSES: usize = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Rows checked against the serial oracle per run.
const ORACLE_ROWS: usize = 16;
/// Lower bound on timed native forwards, whatever `--seconds` says.
const MIN_FORWARDS: usize = 50;
/// Simulated forwards per run; `sim_host_ms` is their median.
const SIM_REPS: usize = 5;
/// Share of `--seconds` spent on timed forwards, native and simulated.
const TIMED_SHARE: f64 = 0.8;

struct Inputs {
    g: Csr,
    x: Matrix,
    net: GnnNetwork,
}

fn build(seed: u64) -> Inputs {
    Inputs {
        g: generators::rmat_default(VERTICES, EDGES, seed),
        x: Matrix::random(VERTICES, FEAT, 1.0, seed ^ 0x11),
        net: GnnNetwork::two_layer(|_| GnnModel::Gcn, FEAT, HIDDEN, CLASSES, seed ^ 0x22),
    }
}

/// Timed forwards for about `budget_s`: native forwards (at least
/// [`MIN_FORWARDS`]) with [`SIM_REPS`] simulated forwards spread evenly
/// among them. With `traced` enabled every other
/// native forward runs inside spans, so traced and untraced samples share
/// the same conditions. Returns untraced and traced per-forward ms, the
/// first output, and how many outputs differed from it.
fn timed_forwards(
    traced: &mut Spans,
    inp: &Inputs,
    probe: &mut Probe,
    budget_s: f64,
) -> (Vec<f64>, Vec<f64>, Matrix, u64) {
    // One thread, the calling one: `Static` runs on the rayon pool, which
    // in this workspace is a sequential shim. On a host of few shared
    // cores, a forward split over all of them waits for whichever thread
    // the host stops, and every thread hand-off (the task pool spawns and
    // joins its workers per convolution) waits for the host to run the
    // woken thread, which can take milliseconds.
    let engine = NativeEngine {
        schedule: NativeSchedule::Static,
        ..NativeEngine::default()
    };
    let mut quiet = Spans::new(false);
    let start = Instant::now();
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut first: Option<Matrix> = None;
    let mut differ = 0;
    for k in 0.. {
        let elapsed = start.elapsed().as_secs_f64();
        let sims = probe.sim_host_ms.len();
        if sims < SIM_REPS && elapsed >= (sims as f64 + 0.5) * budget_s / SIM_REPS as f64 {
            probe.sim(traced);
            continue;
        }
        if sims == SIM_REPS && plain.len() >= MIN_FORWARDS && elapsed >= budget_s {
            break;
        }
        let on = traced.enabled() && k % 2 == 1;
        let t = Instant::now();
        let out = native_forward(
            if on { &mut *traced } else { &mut quiet },
            &engine,
            &inp.net,
            &inp.g,
            &inp.x,
        );
        if on { &mut spanned } else { &mut plain }.push(ms_since(t));
        match &first {
            None => first = Some(out),
            // The native engine is atomic-free: every forward of the
            // same input is bitwise identical.
            Some(f) => differ += u64::from(f.data() != out.data()),
        }
    }
    (plain, spanned, first.expect("at least one forward"), differ)
}

/// Rows of `out` among `ORACLE_ROWS` drawn vertices that differ from the
/// serial oracle run over their exact receptive field.
fn oracle_wrong_rows(inp: &Inputs, out: &Matrix, seed: u64) -> usize {
    let mut rng = Rng::new(seed ^ 0x55);
    let rows: Vec<u32> = (0..ORACLE_ROWS)
        .map(|_| rng.below(VERTICES) as u32)
        .collect();
    let ego = subgraph::ego_graph(&inp.g, &rows, inp.net.receptive_hops());
    let ego_x = ego_features(&ego, FEAT, |v| inp.x.row(v as usize));
    let oracle = inp
        .net
        .forward_with(&ego_x, |m, h| conv_reference(m, &ego.csr, h));
    ego.targets()
        .iter()
        .enumerate()
        .filter(|&(l, &v)| max_abs_diff(oracle.row(l), out.row(v as usize)) > TOL)
        .count()
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let mut setup = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(build(seed));
        setup.push(t.elapsed().as_secs_f64());
    }
    let inp = inputs.expect("built at least once");

    let mut traced = Spans::new(trace);
    let mut probe = Probe::new(&inp.net, (&inp.g, &inp.x), (&inp.g, &inp.x));
    let (fwd, traced_fwd, native_out, differ) =
        timed_forwards(&mut traced, &inp, &mut probe, seconds * TIMED_SHARE);
    let oracle_wrong = oracle_wrong_rows(&inp, &native_out, seed);
    probe.native();
    let sim_wrong = probe.sim_wrong_rows();

    // Each timed forward is one attempt: it fails if its output differs
    // from the first, or the first fails the oracle. The simulated
    // forward is one more attempt, failing if it disagrees with native.
    let forwards = (fwd.len() + traced_fwd.len()) as u64;
    let native_failed = if oracle_wrong > 0 { forwards } else { differ };
    report.attempted = forwards + 1;
    report.failed = native_failed + u64::from(sim_wrong > 0);
    report.unflagged_wrong = report.failed;
    report.note(format!(
        "offline-gcn: {} native forwards of {VERTICES}/{EDGES}, rows wrong vs oracle {oracle_wrong}/{ORACLE_ROWS}; \
         simulated forward, rows wrong vs native {}",
        fwd.len(),
        sim_wrong
    ));

    if !trace {
        EndToEnd {
            setup_s: median(&setup),
            peak_rss_mb: peak_rss_mb(),
            sim_device_ms: probe.sim_profile().gpu_time_ms,
            // Offline, the unit of work is one full-graph forward that
            // answers every vertex. The host switches for seconds at a time
            // between a calm state and one that doubles a forward's time,
            // so the median forward follows the share of the run spent in
            // each; host noise only ever adds time, so the fastest forward
            // does not. Latency and rows per second are taken there.
            latency_ms: percentile(&fwd, 0.0),
            p50_ms: median(&fwd),
            p99_ms: windowed_percentile(
                &fwd,
                (WINDOW_S * 1e3 / median(&fwd)).round() as usize,
                0.99,
            ),
            max_rps: VERTICES as f64 / (percentile(&fwd, 0.0) / 1e3),
        }
        .push_into(&mut report);
        report.push_table_only(
            "failed_frac",
            report.failed as f64 / report.attempted as f64,
            "ratio",
            Clock::Count,
        );
        report.push_table_only("native_fwd_ms", median(&fwd), "ms", Clock::Wall);
        report.push_table_only("sim_host_ms", median(&probe.sim_host_ms), "ms", Clock::Wall);
        return report;
    }

    let mut pl = PerLayer::default();
    native_layers(&traced, &inp.g, FEAT, inp.net.layers.len(), &mut pl);
    let (insts, traffic, host_ms) = sim_layer_counts(&mut traced, &inp.net, &inp.g, &inp.x);
    pl.sim_launches = probe.sim_profile().kernel_launches as f64;
    pl.sim_warp_insts = insts as f64;
    pl.sim_dram_bytes = traffic as f64;
    pl.sim_host_ns_per_inst = host_ms * 1e6 / insts.max(1) as f64;
    pl.setup_graph_s = median(&setup);
    pl.telemetry_overhead_frac = median(&traced_fwd) / median(&fwd) - 1.0;
    pl.push_into(&mut report);
    traced.write_summary();
    report
}

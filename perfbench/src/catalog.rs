//! The benchmark's declared workloads and metrics.
//!
//! `BENCHMARK.json` at the repository root is this catalogue rendered by
//! `perfbench --print-benchmark-json`; a test fails if the file differs.

/// Whether a metric improves by going up or down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression. `None` for per-layer
    /// metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Workload names with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 2] = [
    (
        "fan-drift",
        "511/22/2 fan config in-process on a reoccurring drift: linalg, oselm and core only, a large share of reconstruction",
    ),
    (
        "nsl-serve",
        "38-dim NSL-KDD config over loopback with a state dir, one session in a closed loop: per-frame codec, per-row feed and small checkpoint fsyncs dominate",
    ),
];

/// Metrics printed with `--trace 0`. `error_rate` is not among them: it is
/// 0 on every accepted run (the gate refuses any error), so it travels as
/// the result line's `failed` / `attempted` pair and is printed beside the
/// table.
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("throughput_sps", "samples/s", Higher, 0.25),
    e2e("latency_p50_us", "us", Lower, 0.25),
    e2e("latency_p99_us", "us", Lower, 0.25),
    e2e("cpu_us_per_sample", "us", Lower, 0.25),
    e2e("state_bytes", "bytes", Lower, 0.01),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Metrics printed with `--trace 1`. A layer that does not run on a
/// workload reports 0 for its metrics there.
pub const PER_LAYER: [MetricSpec; 41] = [
    layer("linalg.dot_ns", "ns", Lower),
    layer("linalg.matvec_ns", "ns", Lower),
    layer("linalg.tr_matvec_ns", "ns", Lower),
    layer("linalg.p_update_ns", "ns", Lower),
    layer("oselm.predict_us", "us", Lower),
    layer("oselm.seq_train_us", "us", Lower),
    layer("oselm.rejected_update_frac", "fraction", Lower),
    layer("core.process_us_p50", "us", Lower),
    layer("core.process_us_p99", "us", Lower),
    layer("core.process_stable_us", "us", Lower),
    layer("core.process_recon_us", "us", Lower),
    layer("core.recon_share", "fraction", Lower),
    layer("core.drifts", "count", Higher),
    layer("core.reconstructions", "count", Higher),
    layer("core.guard_ns", "ns", Lower),
    layer("fleet.feed_us_p50", "us", Lower),
    layer("fleet.feed_us_p99", "us", Lower),
    layer("fleet.queue_depth_max", "count", Lower),
    layer("fleet.checkpoints", "count", Lower),
    layer("fleet.busy_rejections", "count", Lower),
    layer("fleet.samples_dropped", "count", Lower),
    layer("store.put_us_p50", "us", Lower),
    layer("store.put_us_p99", "us", Lower),
    layer("store.flushes", "count", Lower),
    layer("store.bytes_written", "bytes", Lower),
    layer("store.flush_failures", "count", Lower),
    layer("server.frame_rtt_us", "us", Lower),
    layer("server.frame_rtt_p99_us", "us", Lower),
    layer("server.proto_encode_ns", "ns", Lower),
    layer("server.proto_decode_ns", "ns", Lower),
    layer("server.bytes_rx_per_sample", "bytes", Lower),
    layer("server.busy_frac", "fraction", Lower),
    layer("server.nacks", "count", Lower),
    layer("loadgen.cpu_us_per_sample", "us", Lower),
    layer("setup.synth_s", "s", Lower),
    layer("setup.calibrate_s", "s", Lower),
    layer("setup.start_s", "s", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.spans", "count", Lower),
    layer("core.rows_replayed", "count", Higher),
    layer("loadgen.frames", "count", Higher),
];

/// Seconds one run measures, as `BENCHMARK.json` declares it.
pub const RUN_SECONDS: u64 = 40;

/// The command that runs the benchmark from the repository root, as
/// `BENCHMARK.json` declares it.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark.
pub const PATHS: [&str; 1] = ["perfbench"];

/// `BENCHMARK.json` as this catalogue declares it
/// (`perfbench --print-benchmark-json`).
pub fn render() -> String {
    use crate::json::quote;
    let list = |items: &[&str]| {
        items
            .iter()
            .map(|s| quote(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let metrics = |specs: &[MetricSpec]| {
        specs
            .iter()
            .map(|m| {
                let bound = m
                    .bound
                    .map_or(String::new(), |b| format!(", \"bound\": {b}"));
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better.as_str())
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": {}, \"why\": {}}}", quote(name), quote(why)))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(&COMMAND),
        list(&PATHS),
        metrics(&END_TO_END),
        metrics(&PER_LAYER),
    )
}

//! Metric definitions, their computation from one run's raw samples,
//! and the run's JSON output.

use std::fmt::Write as _;
use std::path::Path;

use crate::drive::{traced_slice, Stream, ThreadOut};
use crate::host::{self, Sample};
use crate::spans::Span;
use crate::stats::{median, Latencies};
use crate::{Edge, Params, Workload};

/// A metric's name, unit and direction, as `BENCHMARK.json` lists it.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics of an untraced run, both scaled to the reference host speed
/// (see [`crate::host`]); the raw figures are in the detail line.
/// `setup_s` is the median set-up time. `ref_ops_s` is the throughput of
/// each workload's closed-loop stream (verified reads on `read-hot` and
/// `archive`, committed writes on `ingest`), the median over the
/// window's slices. The stream's latency is not gated: in a closed loop
/// its p50 follows from the throughput (requests in flight / rate), and
/// on a shared 2-vCPU VM both its p50 and p99 moved with the host
/// (read-hot p50 70–111 µs, ingest p99 4–19 ms, between runs of the same
/// code). They are reported as `bench.p50_us` and `bench.p99_us` and,
/// with their sample counts, in the detail line.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", "lower"),
    def("ref_ops_s", "1/s", "higher"),
];

/// The most CPU the rest of the process may use while a host probe runs,
/// as a share of the probe's wall time. The server is idle then; CPU it
/// burns would slow the probe and inflate every scaled figure.
const PROBE_BACKGROUND_LIMIT: f64 = 0.1;

/// Metrics of a traced run. A metric whose layer a workload does not
/// reach reads 0 there (e.g. write metrics on `read-hot`).
pub const PER_LAYER: &[MetricDef] = &[
    def("wormnet.call_us", "us", "lower"),
    def("wormnet.encode_us", "us", "lower"),
    def("wormnet.decode_us", "us", "lower"),
    def("wormnet.wire_self_us", "us", "lower"),
    def("wormnet.bytes_per_frame", "B", "lower"),
    def("wormnet.worker_frames_skew", "ratio", "lower"),
    def("strongworm.read_us", "us", "lower"),
    def("strongworm.read_slow_per_kread", "count", "lower"),
    def("strongworm.verify_us", "us", "lower"),
    def("strongworm.verify_deleted_frac", "frac", "lower"),
    def("strongworm.write_call_us", "us", "lower"),
    def("strongworm.deletion_proofs_per_kwrite", "count", "lower"),
    def("scpu.virtual_us_per_write", "vus", "lower"),
    def("wormcrypt.rsa_sign_us", "us", "lower"),
    def("wormcrypt.rsa_verify_us", "us", "lower"),
    def("wormcrypt.sha256_us", "us", "lower"),
    def("wormstore.store_read_us", "us", "lower"),
    def("wormstore.media_writes_per_commit", "count", "lower"),
    def("wormstore.media_bytes_per_commit", "B", "lower"),
    def("wormstore.journal_fill_frac", "frac", "lower"),
    def("gen.late_p99_us", "us", "lower"),
    def("trace.overhead_frac", "frac", "lower"),
    def("bench.p50_us", "us", "lower"),
    def("bench.p99_us", "us", "lower"),
    def("bench.error_frac", "frac", "lower"),
];

/// Everything one run measured.
pub struct Measured {
    /// The run's parameters.
    pub params: Params,
    /// Host cores (`available_parallelism`).
    pub cores: usize,
    /// Duration of each set-up.
    pub setup_s: Vec<f64>,
    /// Host probes before the first set-up and after each.
    pub setup_probes: Vec<Sample>,
    /// Window-opening edge.
    pub start: Edge,
    /// Window-closing edge (clients joined).
    pub end: Edge,
    /// Duration of each slice of the window, its drain included.
    pub slice_s: Vec<f64>,
    /// Host probes before the first slice and after each.
    pub window_probes: Vec<Sample>,
    /// Per-client-thread results.
    pub outs: Vec<ThreadOut>,
    /// Oracle failures.
    pub violations: Vec<String>,
    /// Journal fill at the end of the run.
    pub journal_fill: f64,
}

/// One run's result.
pub struct Report {
    /// No oracle or verification failure.
    pub correct: bool,
    /// Operations attempted in the window.
    pub attempted: u64,
    /// Operations failed or refused in the window.
    pub failed: u64,
    /// `(definition, value)` for the run's metric set.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Provenance, sample counts and per-stream figures, as JSON.
    pub detail: String,
    /// Spans of the traced run.
    pub spans: Vec<Span>,
    /// Oracle failures.
    pub violations: Vec<String>,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One stream merged over the client threads, by slice.
struct StreamStats {
    slices: Vec<Stream>,
}

impl StreamStats {
    fn merge(outs: &mut [ThreadOut], reads: bool, n: usize) -> Self {
        let mut slices: Vec<Stream> = (0..n).map(|_| Stream::default()).collect();
        for o in outs {
            let st = if reads { &mut o.reads } else { &mut o.writes };
            let merged = &mut slices[o.slice];
            merged.ops += st.ops;
            merged.bytes += st.bytes;
            merged.lat.extend(std::mem::take(&mut st.lat));
        }
        StreamStats { slices }
    }

    fn total(&self) -> u64 {
        self.slices.iter().map(|s| s.ops).sum()
    }

    fn bytes(&self) -> u64 {
        self.slices.iter().map(|s| s.bytes).sum()
    }

    /// Every slice's latencies together.
    fn pooled(&self) -> Latencies {
        let mut all = Latencies::default();
        for s in &self.slices {
            all.extend(s.lat.clone());
        }
        all
    }

    /// Throughput, p50 and p99 of each slice that `pick` selects.
    fn figures(&mut self, slice_s: &[f64], pick: impl Fn(usize) -> bool) -> [Vec<f64>; 3] {
        let mut out = [Vec::new(), Vec::new(), Vec::new()];
        for (i, (s, secs)) in self.slices.iter_mut().zip(slice_s).enumerate() {
            if pick(i) {
                out[0].push(ratio(s.ops as f64, *secs));
                out[1].push(s.lat.quantile_us(0.5));
                out[2].push(s.lat.quantile_us(0.99));
            }
        }
        out
    }
}

/// Medians of span durations by name, with sample counts.
fn span_medians(spans: &[Span]) -> std::collections::BTreeMap<&'static str, (f64, usize)> {
    let mut by: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    for s in spans {
        by.entry(s.name).or_default().push(s.us());
    }
    by.into_iter()
        .map(|(k, v)| (k, (median(&v), v.len())))
        .collect()
}

/// Computes the run's metrics and detail from its raw samples.
pub fn build(mut m: Measured) -> Report {
    let p = m.params;
    let n = m.slice_s.len();
    let mut reads = StreamStats::merge(&mut m.outs, true, n);
    let mut writes = StreamStats::merge(&mut m.outs, false, n);
    let attempted: u64 = m.outs.iter().map(|o| o.attempted).sum();
    let failed: u64 = m.outs.iter().map(|o| o.failed).sum();
    let slice_s = &m.slice_s;
    let wall: f64 = slice_s.iter().sum();
    let traced = |i: usize| traced_slice(p.trace, i);

    let primary_reads = p.workload != Workload::Ingest;
    let (primary, primary_name) = if primary_reads {
        (&mut reads, "read")
    } else {
        (&mut writes, "write")
    };
    // End-to-end figures are medians over the untraced slices.
    let [rates, p50s, p99s] = primary.figures(slice_s, |i| !traced(i));
    let [traced_rates, ..] = primary.figures(slice_s, traced);
    let primary_samples: Vec<usize> = primary.slices.iter().map(|s| s.lat.len()).collect();

    let counter = |name: &str| {
        m.end
            .stats
            .counter(name)
            .saturating_sub(m.start.stats.counter(name)) as f64
    };
    let worker_frames: Vec<f64> = (0..m.cores.max(1))
        .map(|i| counter(&format!("net.worker{i}.frames")))
        .collect();
    let frames_max = worker_frames.iter().copied().fold(0.0, f64::max);
    let frames_min = worker_frames.iter().copied().fold(f64::INFINITY, f64::min);
    let n_writes = writes.total() as f64;
    let replay_reads: u64 = m.outs.iter().map(|o| o.replay_reads).sum();
    let verdicts: u64 = m.outs.iter().map(|o| o.verdicts).sum();
    let deleted: u64 = m.outs.iter().map(|o| o.deleted).sum();
    let device_ns = m.end.device_busy_ns.saturating_sub(m.start.device_busy_ns) as f64;
    let io_writes = m.end.io.writes.saturating_sub(m.start.io.writes) as f64;
    let io_bytes = m
        .end
        .io
        .bytes_written
        .saturating_sub(m.start.io.bytes_written) as f64;
    let mut late = Latencies::default();
    for o in &mut m.outs {
        late.extend(std::mem::take(&mut o.late));
    }
    let spans: Vec<Span> = m
        .outs
        .iter_mut()
        .flat_map(|o| std::mem::take(&mut o.spans))
        .collect();
    let med = span_medians(&spans);
    let span_us = |name: &str| med.get(name).map_or(0.0, |v| v.0);
    let call = span_us("wormnet.call");

    let setup_speeds = host::interval_speeds(&m.setup_probes);
    let slice_speeds = host::interval_speeds(&m.window_probes);
    let background = m
        .setup_probes
        .iter()
        .chain(&m.window_probes)
        .map(|s| s.background_frac)
        .fold(0.0, f64::max);
    if background > PROBE_BACKGROUND_LIMIT {
        m.violations.push(format!(
            "the server used {:.0}% of a CPU while idle during a host probe; \
             scaled figures would be inflated",
            background * 100.0
        ));
    }

    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64| {
        let d = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .expect("metric is defined");
        metrics.push((*d, if value.is_finite() { value } else { 0.0 }));
    };
    if p.trace {
        put("wormnet.call_us", call);
        put("wormnet.encode_us", span_us("wormnet.encode"));
        put("wormnet.decode_us", span_us("wormnet.decode"));
        put(
            "wormnet.wire_self_us",
            if call > 0.0 {
                call - span_us("strongworm.read")
                    - span_us("wormnet.encode")
                    - span_us("wormnet.decode")
            } else {
                0.0
            },
        );
        put(
            "wormnet.bytes_per_frame",
            ratio(counter("net.bytes_out"), counter("net.frames_out")),
        );
        put(
            "wormnet.worker_frames_skew",
            ratio(frames_max, frames_min.max(1.0)),
        );
        put("strongworm.read_us", span_us("strongworm.read"));
        put(
            "strongworm.read_slow_per_kread",
            ratio(
                counter("server.read_slow_path") * 1e3,
                (reads.total() + replay_reads) as f64,
            ),
        );
        put("strongworm.verify_us", span_us("strongworm.verify"));
        put(
            "strongworm.verify_deleted_frac",
            ratio(deleted as f64, verdicts as f64),
        );
        put("strongworm.write_call_us", span_us("strongworm.write_call"));
        put(
            "strongworm.deletion_proofs_per_kwrite",
            ratio(counter("witness.deletion_proof") * 1e3, n_writes),
        );
        put(
            "scpu.virtual_us_per_write",
            ratio(device_ns / 1e3, n_writes),
        );
        put("wormcrypt.rsa_sign_us", span_us("wormcrypt.rsa_sign"));
        put("wormcrypt.rsa_verify_us", span_us("wormcrypt.rsa_verify"));
        put("wormcrypt.sha256_us", span_us("wormcrypt.sha256"));
        put("wormstore.store_read_us", span_us("wormstore.store_read"));
        put(
            "wormstore.media_writes_per_commit",
            ratio(io_writes, n_writes),
        );
        put(
            "wormstore.media_bytes_per_commit",
            ratio(io_bytes, n_writes),
        );
        put("wormstore.journal_fill_frac", m.journal_fill);
        put("gen.late_p99_us", late.quantile_us(0.99));
        put(
            "trace.overhead_frac",
            1.0 - ratio(median(&traced_rates), median(&rates)),
        );
        put("bench.p50_us", median(&p50s));
        put("bench.p99_us", median(&p99s));
        put("bench.error_frac", ratio(failed as f64, attempted as f64));
    } else {
        let setups: Vec<f64> = m
            .setup_s
            .iter()
            .zip(&setup_speeds)
            .map(|(t, v)| t * v)
            .collect();
        // Untraced: `rates` has every slice, in order.
        let rates: Vec<f64> = rates
            .iter()
            .zip(&slice_speeds)
            .map(|(r, v)| r / v)
            .collect();
        put("setup_s", median(&setups));
        put("ref_ops_s", median(&rates));
    }

    // Detail: provenance, sample counts, and every stream's figures.
    let mut d = String::new();
    let _ = write!(
        d,
        r#"{{"provenance":{{"git_revision":"{}","source_sha256":"{}","profile":"{}","host_cores":{},"seed":{},"workload":"{}","seconds":{},"traced":{}}}"#,
        git_revision(),
        source_digest(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        m.cores,
        p.seed,
        p.workload.name(),
        p.seconds,
        p.trace
    );
    let _ = write!(
        d,
        r#","primary":"{primary_name}","setup_runs_s":{:?},"setup_speeds":{setup_speeds:?},"slice_speeds":{slice_speeds:?},"probe_background_max":{background},"window_s":{wall},"slice_s":{slice_s:?},"primary_ops_s":{},"primary_slice_ops_s":{rates:?},"primary_slice_p50_us":{p50s:?},"primary_slice_p99_us":{p99s:?},"primary_slice_samples":{primary_samples:?}"#,
        m.setup_s,
        median(&rates),
    );
    // Pooled over the whole window, for reference beside the medians.
    for (label, s) in [("read", &reads), ("write", &writes)] {
        let mut lat = s.pooled();
        let _ = write!(
            d,
            r#","{label}":{{"ops":{},"ops_s":{},"p50_us":{},"p99_us":{},"samples":{}}}"#,
            s.total(),
            ratio(s.total() as f64, wall),
            lat.quantile_us(0.5),
            lat.quantile_us(0.99),
            lat.len()
        );
    }
    let _ = write!(
        d,
        r#","scpu_vrec_s":{},"media_bytes_per_user_byte":{},"error_frac":{},"journal_fill_frac":{},"gen_late_p99_us":{},"late_samples":{}"#,
        ratio(n_writes * 1e9, device_ns),
        ratio(io_bytes, writes.bytes() as f64),
        ratio(failed as f64, attempted as f64),
        m.journal_fill,
        late.quantile_us(0.99),
        late.len()
    );
    d.push_str(r#","span_samples":{"#);
    for (i, (name, (_, n))) in med.iter().enumerate() {
        let _ = write!(d, r#"{}"{name}":{n}"#, if i > 0 { "," } else { "" });
    }
    let _ = write!(d, r#"}},"violations":{}}}"#, m.violations.len());

    Report {
        correct: m.violations.is_empty(),
        attempted,
        failed,
        metrics,
        detail: d,
        spans,
        violations: m.violations,
    }
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (d, v)) in self.metrics.iter().enumerate() {
            let _ = write!(
                s,
                r#"{}"{}": {{"value": {v:?}, "unit": "{}"}}"#,
                if i > 0 { ", " } else { "" },
                d.name,
                d.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// The checkout's git revision, read from `.git` when there is one.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// SHA-256 over the sources the benchmark builds from, so a checkout
/// without git history is still identified.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                if !path.ends_with("target") {
                    walk(&path, files);
                }
            } else if path.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "servebench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend(std::fs::read(f).unwrap_or_default());
    }
    wormcrypt::Sha256::digest_array(&all)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

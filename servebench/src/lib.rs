//! End-to-end and per-layer benchmark of the Strong WORM serving stack.
//!
//! One in-process `NetServer` on loopback fronts a paper-strength durable
//! `WormServer` (1024-bit strong keys, 512-bit weak keys, the IBM 4764
//! cost model, SCPU hashing, strong witnesses). Load comes from two
//! client threads on two connections in the same process; the server
//! runs one event-loop worker per core. The program's own `wormtrace`
//! collection stays off in every run, so traced and untraced runs take
//! the same ReadCache path; traced runs record spans from this crate's
//! code around its calls into each layer instead.
//!
//! The end-to-end figures are scaled to a reference host speed, measured
//! by a bench-owned probe at every quiescent point of the run (see
//! [`host`]), so that the other tenants of a shared host move them less.
//!
//! Workloads (chosen so each stresses a different layer):
//! - `read-hot`: 512 × 4 KiB records, closed-loop pipelined reads. Fits
//!   every cache, so the reactor, codec, ReadCache and verifier memos
//!   dominate and the SCPU does no work.
//! - `ingest`: closed-loop writes of 1–64 KiB records, no readers: SCPU
//!   signing and hashing, journal commit and store write (Figure 1).
//! - `archive`: 16 Ki × 4 KiB records (4× every cache), open-loop writes
//!   with expiry and shredding underneath closed-loop cold reads.

pub mod drive;
pub mod host;
pub mod report;
pub mod rig;
pub mod spans;
pub mod stats;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use strongworm::RetentionPolicy;
use wormnet::RemoteWormClient;
use wormstore::{BlockDevice, IoStats, Shredder};

use drive::{Oracle, Probe, Shared, Slot, ThreadOut, WritePlan};
use report::{Measured, Report};
use rig::{long_retention, Corpus, Geometry, Rig};

/// A named traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Hot, cached, read-only.
    ReadHot,
    /// Write-only.
    Ingest,
    /// Cold reads beside open-loop writes, expiry and shredding.
    Archive,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::ReadHot, Workload::Ingest, Workload::Archive];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read-hot",
            Workload::Ingest => "ingest",
            Workload::Archive => "archive",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::full`] is the benchmark; [`Scale::smoke`] is a
/// seconds-long version for the self-test.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Fewest set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Set-up repeats until it has also run for this long (at most
    /// [`MAX_SETUPS`] times). The same boot took either ~0.45 s or ~0.7 s
    /// on read-hot, so a median of three moved by a third between runs.
    pub setup_budget: Duration,
    /// Records in the read-hot corpus.
    pub hot_records: usize,
    /// Records in the archive corpus.
    pub archive_records: usize,
    /// Unmeasured load before the window (caches fill, lazy set-up ends).
    pub warmup: Duration,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Scale {
            setups: 3,
            setup_budget: Duration::from_secs(3),
            hot_records: 512,
            archive_records: 16 << 10,
            warmup: Duration::from_secs(1),
        }
    }

    /// A brief run exercising every code path.
    pub fn smoke() -> Self {
        Scale {
            setups: 1,
            setup_budget: Duration::ZERO,
            hot_records: 64,
            archive_records: 256,
            warmup: Duration::from_millis(200),
        }
    }
}

/// One benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Traffic mix.
    pub workload: Workload,
    /// Input seed: record contents, retention schedule, request order.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// Most set-ups per run.
pub const MAX_SETUPS: usize = 9;
/// Length of one slice of the window: long enough that a slice's p99
/// has at least ten samples beyond it on every workload (ingest commits
/// ~800 writes/s).
const SLICE_SECONDS: f64 = 2.0;
/// Bytes per record in the read-hot and archive corpora.
const RECORD_BYTES: usize = 4 << 10;
/// Archive writes offered per second: well below ingest's capacity, so
/// the writer keeps its schedule while readers run beside it.
const ARCHIVE_RATE: f64 = 100.0;
/// Virtual time each archive write advances the trusted clock by. With
/// short retentions spread one per step, records expire as fast as new
/// ones arrive: a steady-state archive.
const ARCHIVE_STEP: Duration = Duration::from_secs(1);
/// Archive writes between Retention Monitor ticks.
const ARCHIVE_TICK_EVERY: u64 = 4;
/// Journal bytes budgeted per second of a writing run (measured: ~0.3
/// MiB/s on ingest); the journal has no checkpoint, so it must hold the
/// whole run, and its fill is reported.
const JOURNAL_PER_SECOND: u64 = 2 << 20;
/// Store bytes budgeted per second of ingest (measured: ~850 writes/s
/// of ~15 KiB mean on 2 cores; pages are touched only when written).
const INGEST_STORE_PER_SECOND: u64 = 64 << 20;

fn plan(p: &Params) -> (Corpus, Geometry) {
    let mut rng = StdRng::seed_from_u64(p.seed);
    let run_s = p.seconds + p.scale.warmup.as_secs_f64() + 1.0;
    let records = match p.workload {
        Workload::ReadHot => p.scale.hot_records,
        Workload::Ingest => 0,
        Workload::Archive => p.scale.archive_records,
    };
    let policies: Vec<RetentionPolicy> = (0..records)
        .map(|_| {
            if p.workload == Workload::Archive && drive::unit(&mut rng) < 0.5 {
                // Expiry uniform over as many steps as short records, so
                // about one record expires per archive write.
                let steps = 1 + drive::below(&mut rng, (records as u64 / 2).max(1));
                RetentionPolicy::custom(ARCHIVE_STEP * steps as u32, Shredder::ZeroFill)
            } else {
                long_retention()
            }
        })
        .collect();
    // Per-record journal use is ~400 B; only the written workloads grow
    // it during the run. Smaller regions keep set-up's page faults down.
    let run_writes = p.workload != Workload::ReadHot;
    let journal_bytes = (1 << 20)
        + records as u64 * 1024
        + u64::from(run_writes) * JOURNAL_PER_SECOND * run_s as u64;
    let store_bytes = (1 << 20)
        + (records * RECORD_BYTES) as u64
        + match p.workload {
            Workload::ReadHot => 0,
            Workload::Ingest => INGEST_STORE_PER_SECOND * run_s as u64,
            Workload::Archive => 2 * ARCHIVE_RATE as u64 * RECORD_BYTES as u64 * run_s as u64,
        };
    (
        Corpus {
            record_bytes: RECORD_BYTES,
            policies,
        },
        Geometry {
            journal_bytes,
            store_bytes,
        },
    )
}

/// Counters and meters read at a quiescent window edge.
pub struct Edge {
    /// Registry snapshot.
    pub stats: wormtrace::StatsSnapshot,
    /// SCPU virtual busy time.
    pub device_busy_ns: u128,
    /// Medium I/O, journal and store together.
    pub io: IoStats,
}

fn edge(rig: &Rig) -> Edge {
    Edge {
        stats: rig.server.stats_snapshot(),
        // Takes the witness lock: read only here, at window edges.
        device_busy_ns: rig.server.device_meter().busy_ns(),
        io: rig.medium.stats(),
    }
}

/// Runs one benchmark run end to end.
pub fn run(p: &Params) -> Report {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (corpus, geometry) = plan(p);
    let mut setup_s = Vec::new();
    let mut setup_probes = vec![host::measure(cores)];
    let started = Instant::now();
    let mut rig = loop {
        let t = Instant::now();
        let r = rig::boot(&corpus, &geometry, p.seed, cores);
        setup_s.push(t.elapsed().as_secs_f64());
        setup_probes.push(host::measure(cores));
        let more = setup_s.len() < MAX_SETUPS
            && (setup_s.len() < p.scale.setups || started.elapsed() < p.scale.setup_budget);
        if !more {
            break r;
        }
        r.shutdown();
    };

    let short = corpus
        .policies
        .iter()
        .map(|pol| pol.retention < long_retention().retention)
        .collect();
    let shared = Shared {
        stop: AtomicBool::new(false),
        server: rig.server.clone(),
        verifier: rig.verifier.clone(),
        clock: rig.clock.clone(),
        addr: rig.net.local_addr(),
        seed: p.seed,
        oracle: Oracle {
            short,
            issued_hi: AtomicU64::new(corpus.policies.len() as u64),
            stamps_exact: AtomicBool::new(p.workload == Workload::Archive),
        },
        probe: p.trace.then(|| Probe::new(p.seed)),
        epoch: Instant::now(),
    };
    let write_plan = WritePlan {
        rate: ARCHIVE_RATE,
        step: ARCHIVE_STEP,
        tick_every: ARCHIVE_TICK_EVERY,
    };

    // Runs one batch of client threads for `secs`, then stops and joins
    // them: the server is quiescent when this returns.
    let run_slot = |slot: Slot, secs: f64, clients: Vec<RemoteWormClient>| {
        shared.stop.store(false, Ordering::Relaxed); // ordering: see `Worker::stopping`
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(i, client)| {
                    let (sh, plan) = (&shared, &write_plan);
                    s.spawn(move || match (p.workload, i) {
                        (Workload::ReadHot, _) => drive::read_hot(sh, slot, i, client),
                        (Workload::Ingest, _) => drive::ingest(sh, slot, i, client),
                        (Workload::Archive, 0) => {
                            drive::archive_writer(sh, slot, i, client, plan, RECORD_BYTES)
                        }
                        (Workload::Archive, _) => drive::archive_reader(sh, slot, i, client),
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_secs_f64(secs));
            shared.stop.store(true, Ordering::Relaxed); // ordering: see `Worker::stopping`
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .unzip::<_, _, Vec<ThreadOut>, Vec<RemoteWormClient>>()
        })
    };

    let clients: Vec<_> = rig.clients.drain(..).collect();
    let warm = Slot {
        window: false,
        slice: 0,
        traced: false,
    };
    let (mut warm_outs, mut clients) = run_slot(warm, p.scale.warmup.as_secs_f64(), clients);
    // Metrics are medians over slices, so a burst of interference from
    // the host moves at most a slice or two. A traced run alternates
    // untraced and traced slices so that drift over the run cancels out
    // of the tracing overhead.
    let slices = ((p.seconds / SLICE_SECONDS).round() as usize).max(1);
    let slices = if p.trace {
        slices.div_ceil(2) * 2
    } else {
        slices
    };
    let start = edge(&rig);
    let mut slice_s = Vec::with_capacity(slices);
    let mut window_probes = vec![host::measure(cores)];
    let mut outs = Vec::new();
    for slice in 0..slices {
        let slot = Slot {
            window: true,
            slice,
            traced: drive::traced_slice(p.trace, slice),
        };
        let t = Instant::now();
        let (o, c) = run_slot(slot, p.seconds / slices as f64, clients);
        slice_s.push(t.elapsed().as_secs_f64());
        // Between slices the client threads are joined and the server
        // is idle, so the probe has the host to itself.
        window_probes.push(host::measure(cores));
        outs.extend(o);
        clients = c;
    }
    let end = edge(&rig);

    // Ingest's oracle: serial numbers are unique, and an even sample of
    // the committed writes reads back intact with the bytes written.
    let mut violations = Vec::new();
    let written: Vec<_> = outs
        .iter()
        .flat_map(|o| o.written.iter().copied())
        .collect();
    let mut sns: Vec<u64> = written.iter().map(|w| w.0 .0).collect();
    sns.sort_unstable();
    if sns.windows(2).any(|w| w[0] == w[1]) {
        violations.push("a serial number was issued twice".to_string());
    }
    if p.workload == Workload::Ingest {
        let step = (written.len() / 64).max(1);
        let sample: Vec<_> = written.iter().step_by(step).copied().collect();
        violations.extend(drive::check_written(&shared, &mut clients[0], &sample));
    }
    for o in outs.iter_mut().chain(warm_outs.iter_mut()) {
        violations.append(&mut o.violations);
    }
    let journal_fill = rig.journal_fill();
    rig.clients = clients;
    drop(shared);
    rig.shutdown();

    report::build(Measured {
        params: *p,
        cores,
        setup_s,
        setup_probes,
        start,
        end,
        slice_s,
        window_probes,
        outs,
        violations,
        journal_fill,
    })
}

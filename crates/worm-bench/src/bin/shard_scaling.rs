//! Ablation A7: write throughput of a sharded witness plane vs SCPU
//! count.
//!
//! The paper's §5 remark ("these results naturally scale if multiple
//! SCPUs are available") claims write throughput scales linearly with
//! the number of SCPUs because each write costs a fixed amount of
//! secure-coprocessor time (witness signatures) while host-side work is
//! comparatively cheap. This binary boots a `ShardedWormServer` at 1, 2,
//! 4, and 8 shards, drives the same write workload through the
//! round-robin fan-out, and derives throughput from *virtual time* the
//! same way `figure1` does: every shard's emulated SCPU charges each
//! operation its documented IBM 4764 latency, so the results are
//! deterministic and independent of this machine's core count.
//!
//! Two series are swept, both under Figure 1's `TrustHostHash` setting
//! (1024-bit permanent keys, 512-bit weak keys): `strong` (two 1024-bit
//! signatures per write) and `deferred` (512-bit signatures now,
//! strengthened later).
//!
//! Shards operate in parallel (distinct SCPU devices, per-shard witness
//! serialization), so the parallel completion time of the batch is the
//! *makespan* — the busiest single shard's device time — while the
//! host-side stage (hashing the 4 KiB records) remains shared and
//! serial. The effective rate is the pipeline minimum of the two,
//! exactly the stage model of Figure 1. The deferred series reaches
//! that host bound at 8 shards: `scpu_rps` keeps doubling, but
//! `effective_rps` is capped by `host_rps`.
//!
//! After each measured point the batch is re-read over the wire: a
//! `NetServer` fronts the sharded deployment, a `RemoteWormClient`
//! bootstraps a `CompositeVerifier` from `GetShardKeys`, and sampled
//! records from every lane must verify end-to-end against the composite
//! freshness head. A point only counts if every sampled cross-shard
//! read verifies.
//!
//! Emits `results/BENCH_shard_scaling.json` as JSON lines and exits
//! nonzero if either series' speedup curve is not monotone, or (full
//! sweep) is below 2.5x at 4 shards — `--smoke` restricts the sweep to
//! 1 vs 2 shards with a smaller batch for CI.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use scpu::VirtualClock;
use strongworm::{
    HashMode, ReadVerdict, RegulatoryAuthority, RetentionPolicy, SerialNumber, ShardedWormServer,
    WitnessMode, WormConfig,
};
use worm_bench::{json_record, to_json_lines};
use wormcrypt::RsaPublicKey;
use wormnet::{NetServer, NetServerConfig, RemoteWormClient};
use wormstore::Shredder;

/// One measured point of the A7 reproduction.
#[derive(Clone, Debug)]
struct ShardScalingPoint {
    /// Witness tier of every write in the batch (`strong`/`deferred`).
    witness: &'static str,
    shards: u32,
    records: usize,
    record_bytes: usize,
    /// Busiest shard's SCPU time for the batch (the parallel makespan), ns.
    scpu_makespan_ns: u64,
    /// Shared host-side time for the batch, ns.
    host_ns: u64,
    /// Rate sustainable by the sharded SCPU stage (records/second).
    scpu_rps: f64,
    /// Rate sustainable by the shared host stage (records/second).
    host_rps: f64,
    /// Pipeline minimum of the two stages.
    effective_rps: f64,
    /// `effective_rps` over the same series' 1-shard point.
    speedup_vs_1: f64,
    /// Cross-shard wire reads verified against the composite head.
    wire_reads_verified: u64,
}

json_record!(ShardScalingPoint {
    witness,
    shards,
    records,
    record_bytes,
    scpu_makespan_ns,
    host_ns,
    scpu_rps,
    host_rps,
    effective_rps,
    speedup_vs_1,
    wire_reads_verified,
});

const RECORD_BYTES: usize = 4 << 10;
/// Verified cross-shard reads sampled per point (capped by batch size).
const READBACK_SAMPLES: usize = 16;
/// The two A7 series, in report order.
const SERIES: [(&str, WitnessMode); 2] = [
    ("strong", WitnessMode::Strong),
    ("deferred", WitnessMode::Deferred),
];

/// The paper defaults (1024-bit permanent keys, 512-bit weak keys, and
/// the calibrated IBM 4764 cost model the throughput numbers derive
/// from) under Figure 1's `TrustHostHash` setting.
fn bench_config() -> WormConfig {
    WormConfig {
        hash_mode: HashMode::TrustHostHash,
        store_capacity: 16 << 20,
        ..WormConfig::default()
    }
}

fn measure_point(
    (witness_label, witness): (&'static str, WitnessMode),
    shards: u32,
    records: usize,
    regulator: &RsaPublicKey,
    baseline_rps: Option<f64>,
) -> ShardScalingPoint {
    let clock = VirtualClock::starting_at_millis(1_000_000);
    let server = Arc::new(
        ShardedWormServer::new(bench_config(), clock.clone(), regulator, shards)
            .expect("sharded server boots"),
    );

    let mut rng = StdRng::seed_from_u64(u64::from(shards) ^ 0xA7);
    let mut record = vec![0u8; RECORD_BYTES];
    rng.fill_bytes(&mut record);
    let policy = RetentionPolicy::custom(Duration::from_secs(1_000_000), Shredder::ZeroFill);

    for shard in server.shards() {
        shard.reset_meters();
    }
    let sns: Vec<SerialNumber> = (0..records)
        .map(|_| {
            server
                .write_with(&[&record], policy, 0, witness)
                .expect("write succeeds")
        })
        .collect();

    // Shards run in parallel: the batch completes when the busiest
    // shard's SCPU drains. The host stage is one machine, shared by all
    // shards, so its per-batch time does not divide.
    let scpu_makespan_ns = server
        .shards()
        .iter()
        .map(|s| u64::try_from(s.device_meter().busy_ns()).unwrap_or(u64::MAX))
        .max()
        .unwrap_or(0);
    let host_ns: u64 = server
        .shards()
        .iter()
        .map(|s| u64::try_from(s.host_meter().busy_ns()).unwrap_or(u64::MAX))
        .sum();

    let n = records as f64;
    let scpu_rps = n / (scpu_makespan_ns as f64 / 1e9).max(1e-12);
    let host_rps = n / (host_ns as f64 / 1e9);
    let effective_rps = scpu_rps.min(host_rps);

    // End-to-end check: every lane's records must still verify over the
    // wire against the composite freshness head.
    let wire_reads_verified = verify_over_wire(&server, clock, &sns);

    ShardScalingPoint {
        witness: witness_label,
        shards,
        records,
        record_bytes: RECORD_BYTES,
        scpu_makespan_ns,
        host_ns,
        scpu_rps,
        host_rps,
        effective_rps,
        speedup_vs_1: effective_rps / baseline_rps.unwrap_or(effective_rps),
        wire_reads_verified,
    }
}

/// Reads a cross-lane sample of `sns` over a loopback `NetServer` with
/// full composite-head verification; returns the number verified.
/// Panics if any sampled read fails to verify — the scaling numbers are
/// only meaningful if the sharded plane stays globally verifiable.
fn verify_over_wire(
    server: &Arc<ShardedWormServer>,
    clock: Arc<VirtualClock>,
    sns: &[SerialNumber],
) -> u64 {
    let net = NetServer::bind(server.clone(), "127.0.0.1:0", NetServerConfig::default())
        .expect("bind loopback");
    let mut client = RemoteWormClient::connect(net.local_addr()).expect("connect");
    let verifier = client
        .bootstrap_composite_verifier(Duration::from_secs(300), clock)
        .expect("bootstrap composite verifier");
    assert_eq!(verifier.shard_count(), server.shard_count() as usize);

    // An evenly strided sample crosses every lane (writes were assigned
    // round-robin, so consecutive SNs live on different shards).
    let step = (sns.len() / READBACK_SAMPLES.min(sns.len())).max(1);
    let mut verified = 0u64;
    for &sn in sns.iter().step_by(step) {
        let (verdict, _) = client
            .read_verified(sn, &verifier)
            .expect("verified wire read");
        assert_eq!(verdict, ReadVerdict::Intact { sn }, "read must verify");
        verified += 1;
    }
    net.shutdown();
    verified
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sweep, records): (&[u32], usize) = if smoke {
        (&[1, 2], 64)
    } else {
        (&[1, 2, 4, 8], 192)
    };

    let mut rng = StdRng::seed_from_u64(0xA7);
    let regulator = RegulatoryAuthority::generate(&mut rng, 512);

    let mut points: Vec<ShardScalingPoint> = Vec::new();
    for series in SERIES {
        let first = points.len();
        for &shards in sweep {
            let baseline = points.get(first).map(|p| p.effective_rps);
            let p = measure_point(series, shards, records, regulator.public(), baseline);
            println!(
                "{:<8} shards={:<2} scpu={:>9.0} host={:>9.0} effective={:>9.0} rec/s \
                 speedup={:.2}x wire-verified={}",
                p.witness,
                p.shards,
                p.scpu_rps,
                p.host_rps,
                p.effective_rps,
                p.speedup_vs_1,
                p.wire_reads_verified
            );
            points.push(p);
        }

        // A7's claim is monotone (near-linear) scaling in each series; a
        // regression here means the fan-out serialized somewhere it
        // shouldn't.
        let (label, series) = (series.0, &points[first..]);
        for pair in series.windows(2) {
            assert!(
                pair[1].effective_rps > pair[0].effective_rps,
                "{label} write throughput must be monotone in shard count: \
                 {} shards {:.0} rec/s vs {} shards {:.0} rec/s",
                pair[0].shards,
                pair[0].effective_rps,
                pair[1].shards,
                pair[1].effective_rps,
            );
        }
        if !smoke {
            let four = series
                .iter()
                .find(|p| p.shards == 4)
                .expect("4-shard point");
            assert!(
                four.speedup_vs_1 >= 2.5,
                "{label} 4-shard speedup must be >= 2.5x, got {:.2}x",
                four.speedup_vs_1
            );
        }
    }

    std::fs::create_dir_all("results").expect("results dir");
    let out = to_json_lines(&points) + "\n";
    std::fs::write("results/BENCH_shard_scaling.json", out).expect("write results");
    println!("wrote results/BENCH_shard_scaling.json");
}

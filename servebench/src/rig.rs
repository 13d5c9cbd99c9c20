//! The system under test: a paper-strength durable `WormServer` with a
//! preloaded corpus, fronted by an in-process `NetServer` on loopback,
//! plus the benchmark's two client connections and a bootstrapped
//! verifier. Building one is what `setup_s` times.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use scpu::{CostModel, DeviceConfig, VirtualClock};
use strongworm::{
    HashMode, RegulatoryAuthority, RetentionPolicy, SerialNumber, Verifier, WitnessMode,
    WormConfig, WormServer,
};
use wormnet::{NetServer, NetServerConfig, RemoteWormClient};
use wormstore::{MemDisk, Partition, Shredder};

/// The raw medium: journal region first, record store after it.
pub type Medium = Arc<MemDisk>;
/// The server type every workload runs against.
pub type Server = WormServer<Partition<Medium>>;

/// Client connections, one per client thread: two threads for a 2-core
/// host.
const CONNECTIONS: usize = 2;
/// Maximum head-certificate age the verifier accepts (paper default).
const FRESHNESS: Duration = Duration::from_secs(300);

/// Retention long enough that nothing expires within any run.
pub fn long_retention() -> RetentionPolicy {
    RetentionPolicy::custom(Duration::from_secs(10_000_000), Shredder::ZeroFill)
}

/// Deterministic record contents: the first 8 bytes carry `stamp`
/// (big-endian), the rest is a splitmix64 stream keyed by seed and stamp.
pub fn payload(seed: u64, stamp: u64, len: usize) -> Vec<u8> {
    let mut x = seed ^ stamp.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut out = Vec::with_capacity(len + 8);
    out.extend_from_slice(&stamp.to_be_bytes());
    while out.len() < len {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// The stamp a record's bytes carry (see [`payload`]).
pub fn stamp_of(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(bytes.get(..8)?.try_into().ok()?))
}

/// The records preloaded before the clients connect: record `i` gets
/// serial number `i + 1` and carries that number as its stamp.
pub struct Corpus {
    /// Bytes per record.
    pub record_bytes: usize,
    /// Retention of each record, in serial-number order.
    pub policies: Vec<RetentionPolicy>,
}

/// Medium sizing for one rig.
pub struct Geometry {
    /// Journal region bytes (the journal has no checkpoint, so it must
    /// hold every table mutation of the longest run).
    pub journal_bytes: u64,
    /// Record store bytes.
    pub store_bytes: u64,
}

/// A running system under test.
pub struct Rig {
    /// The fronted server (in-process handle, for replays and meters).
    pub server: Arc<Server>,
    /// The wire front-end.
    pub net: NetServer,
    /// The medium under both journal and store.
    pub medium: Medium,
    /// The trusted clock shared by SCPU and verifier.
    pub clock: Arc<VirtualClock>,
    /// Verifier bootstrapped over the wire.
    pub verifier: Arc<Verifier>,
    /// The benchmark's client connections.
    pub clients: Vec<RemoteWormClient>,
    /// Journal region size.
    pub journal_bytes: u64,
}

/// Paper strength: 1024-bit strong keys, 512-bit weak keys, the IBM 4764
/// cost model, SCPU hashing and strong witnesses.
fn paper_config() -> WormConfig {
    WormConfig {
        strong_bits: 1024,
        weak_bits: 512,
        hash_mode: HashMode::ScpuHashes,
        default_witness: WitnessMode::Strong,
        device: DeviceConfig {
            cost_model: CostModel::ibm4764(),
            secure_memory_bytes: 16 << 20,
            serial: 0x4764,
            rng_seed: 7,
        },
        ..WormConfig::default()
    }
}

/// Boots, preloads, binds and bootstraps one rig. Keys come from fixed
/// seeds so every boot does the same work; `seed` picks record contents.
pub fn boot(corpus: &Corpus, geometry: &Geometry, seed: u64, workers: usize) -> Rig {
    let clock = VirtualClock::starting_at_millis(1_000_000);
    let regulator = RegulatoryAuthority::generate(&mut StdRng::seed_from_u64(77), 512);
    let medium: Medium = Arc::new(MemDisk::unmetered(
        (geometry.journal_bytes + geometry.store_bytes) as usize,
    ));
    let server = Server::with_durable(
        medium.clone(),
        geometry.journal_bytes,
        paper_config(),
        clock.clone(),
        regulator.public(),
    )
    .expect("durable server boots");
    // Collection off in every run: enabling it bypasses the ReadCache.
    server.trace().set_enabled(false);
    for (i, policy) in corpus.policies.iter().enumerate() {
        let sn = i as u64 + 1;
        let data = payload(seed, sn, corpus.record_bytes);
        let got = server
            .write_with(&[&data], *policy, 0, WitnessMode::Strong)
            .expect("corpus write");
        assert_eq!(
            got,
            SerialNumber(sn),
            "corpus serial numbers are dense from 1"
        );
    }
    let server = Arc::new(server);
    let net = NetServer::bind(
        server.clone(),
        "127.0.0.1:0",
        NetServerConfig {
            workers,
            ..NetServerConfig::default()
        },
    )
    .expect("bind loopback");
    let mut clients: Vec<RemoteWormClient> = (0..CONNECTIONS)
        .map(|_| RemoteWormClient::connect(net.local_addr()).expect("connect"))
        .collect();
    let verifier = clients[0]
        .bootstrap_verifier(FRESHNESS, clock.clone())
        .expect("verifier bootstrap");
    Rig {
        server,
        net,
        medium,
        clock,
        verifier: Arc::new(verifier),
        clients,
        journal_bytes: geometry.journal_bytes,
    }
}

impl Rig {
    /// Stops the wire front-end and drops the server.
    pub fn shutdown(self) {
        drop(self.clients);
        self.net.shutdown();
    }

    /// Share of the journal region in use.
    pub fn journal_fill(&self) -> f64 {
        self.server.vrdt().journal().len_bytes() as f64 / self.journal_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_stamped_and_deterministic() {
        let a = payload(1, 42, 100);
        assert_eq!(a.len(), 100);
        assert_eq!(stamp_of(&a), Some(42));
        assert_eq!(a, payload(1, 42, 100));
        assert_ne!(a, payload(2, 42, 100));
    }
}

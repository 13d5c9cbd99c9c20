//! Client threads: the load generators of the three workloads, the
//! correctness oracle they apply to every response, and the sampled
//! replays that give traced runs their per-layer spans.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use scpu::VirtualClock;
use strongworm::vrdt::Lookup;
use strongworm::{ReadOutcome, ReadVerdict, SerialNumber, Verifier, VerifyError, WitnessMode};
use wormcrypt::{HashAlg, RsaPrivateKey, Sha256};
use wormnet::protocol::{decode_response, encode_response};
use wormnet::{NetError, NetRequest, NetResponse, RemoteWormClient};

use crate::rig::{long_retention, payload, stamp_of, Server};
use crate::spans::{Span, Tracer};
use crate::stats::Latencies;

/// Requests each read-hot connection keeps in flight.
const PIPELINE_DEPTH: usize = 8;
/// Minimum gap between two sampled (traced) operations on one thread.
/// Bounds the replay work a traced run adds to roughly 5% of a thread.
const SAMPLE_GAP: Duration = Duration::from_millis(2);
/// Minimum gap between two replayed RSA signatures on one thread (a
/// 1024-bit signature costs as much as ~60 hot reads).
const SIGN_GAP: Duration = Duration::from_millis(50);

/// Which part of the run a batch of client threads serves.
///
/// The run is a warm-up followed by the measured window, cut into
/// slices. Each slice gets freshly spawned client threads, which drain
/// their in-flight requests and exit when the slice ends, so the
/// window's edges are quiescent and every counter and meter delta covers
/// exactly the operations submitted inside it.
#[derive(Clone, Copy, Debug)]
pub struct Slot {
    /// False for the warm-up, whose operations are checked but not
    /// counted.
    pub window: bool,
    /// Slice index inside the window.
    pub slice: usize,
    /// Whether this slice collects spans (the odd slices of a traced run).
    pub traced: bool,
}

/// Whether slice `i` of a window collects spans: the odd slices of a
/// traced run.
pub fn traced_slice(trace_run: bool, i: usize) -> bool {
    trace_run && i % 2 == 1
}

/// Which responses are valid for which serial numbers.
pub struct Oracle {
    /// Per corpus record (index `sn - 1`): true when its retention may
    /// lapse during the run.
    pub short: Vec<bool>,
    /// Highest serial number a reader may ask for (grows as archive
    /// writes commit).
    pub issued_hi: AtomicU64,
    /// True while every write beyond the corpus carries its own serial
    /// number as its stamp (archive's single writer predicts it; ingest's
    /// concurrent writers cannot). Stamp checks then cover those writes.
    pub stamps_exact: AtomicBool,
}

impl Oracle {
    fn short(&self, sn: SerialNumber) -> bool {
        sn.0 >= 1 && self.short.get(sn.0 as usize - 1).copied().unwrap_or(false)
    }

    fn stamped(&self, sn: SerialNumber) -> bool {
        // ordering: a one-way flag; a late view only skips one check.
        sn.0 <= self.short.len() as u64 || self.stamps_exact.load(Ordering::Relaxed)
    }

    /// Judges one verification: long-retention serial numbers must be
    /// intact, short ones intact or rightfully deleted, and no issued
    /// serial number may verify as never-existed.
    fn judge(
        &self,
        sn: SerialNumber,
        outcome: &ReadOutcome,
        verdict: Result<ReadVerdict, VerifyError>,
    ) -> Result<bool, String> {
        match verdict {
            Err(e) => Err(format!("{sn}: verification failed: {e}")),
            Ok(ReadVerdict::Intact { sn: got }) if got != sn => {
                Err(format!("{sn}: intact verdict names {got}"))
            }
            Ok(ReadVerdict::Intact { .. }) => {
                if let ReadOutcome::Data { records, .. } = outcome {
                    let stamp = records.first().and_then(|r| stamp_of(r));
                    if self.stamped(sn) && stamp != Some(sn.0) {
                        return Err(format!("{sn}: payload stamp {stamp:?}"));
                    }
                }
                Ok(false)
            }
            Ok(ReadVerdict::ConfirmedDeleted { .. }) if self.short(sn) => Ok(true),
            Ok(ReadVerdict::ConfirmedDeleted { .. }) => {
                Err(format!("{sn}: long-retention record reported deleted"))
            }
            Ok(ReadVerdict::ConfirmedNeverExisted) => {
                Err(format!("{sn}: issued record reported never-existed"))
            }
        }
    }
}

/// A bench-owned 1024-bit key: the wall cost of the emulated SCPU's
/// signatures and of the client's signature checks, measured apart from
/// the server.
pub struct Probe {
    key: RsaPrivateKey,
    msg: Vec<u8>,
    sig: Vec<u8>,
}

impl Probe {
    /// Generates the key (traced runs only, outside every timed window).
    pub fn new(seed: u64) -> Self {
        let key = RsaPrivateKey::generate(&mut StdRng::seed_from_u64(seed ^ 0x5167), 1024);
        let msg = b"servebench probe".to_vec();
        let sig = key.sign(&msg, HashAlg::Sha256).expect("1024-bit key signs");
        Probe { key, msg, sig }
    }
}

/// State every client thread reads.
pub struct Shared {
    /// Set by the main thread when the current slice ends.
    pub stop: AtomicBool,
    /// In-process handle on the fronted server (replays only).
    pub server: Arc<Server>,
    /// Verifier bootstrapped over the wire.
    pub verifier: Arc<Verifier>,
    /// Trusted clock (advanced by archive writes).
    pub clock: Arc<VirtualClock>,
    /// Where to reconnect after a transport failure.
    pub addr: SocketAddr,
    /// Input seed.
    pub seed: u64,
    /// Response validity rules.
    pub oracle: Oracle,
    /// Present in traced runs.
    pub probe: Option<Probe>,
    /// Epoch that span times are relative to.
    pub epoch: Instant,
}

/// One operation stream (reads or writes) in one slice of the window.
#[derive(Default)]
pub struct Stream {
    /// Operations completed successfully.
    pub ops: u64,
    /// Latency of each successful operation.
    pub lat: Latencies,
    /// Payload bytes committed (writes).
    pub bytes: u64,
}

/// What one client thread measured in one slice.
#[derive(Default)]
pub struct ThreadOut {
    /// Slice index.
    pub slice: usize,
    /// Verified reads.
    pub reads: Stream,
    /// Committed writes.
    pub writes: Stream,
    /// Operations attempted inside the window (reads, writes, ticks).
    pub attempted: u64,
    /// Attempted operations that failed or were refused.
    pub failed: u64,
    /// Oracle or verification failures (any phase).
    pub violations: Vec<String>,
    /// Verdicts inside the window, and how many were deletions.
    pub verdicts: u64,
    /// See `verdicts`.
    pub deleted: u64,
    /// In-process reads replayed for spans.
    pub replay_reads: u64,
    /// How late the open-loop generator issued each write.
    pub late: Latencies,
    /// `(sn, stamp, len)` of every write committed inside the window.
    pub written: Vec<(SerialNumber, u64, usize)>,
    /// Spans of sampled operations.
    pub spans: Vec<Span>,
}

struct Issued {
    sn: SerialNumber,
    submit: Instant,
    op: u64,
    window: bool,
    sampled: bool,
}

/// Per-thread generator state.
struct Worker<'a> {
    sh: &'a Shared,
    slot: Slot,
    idx: u64,
    rng: StdRng,
    out: ThreadOut,
    tracer: Tracer,
    next_op: u64,
    last_sample: Option<Instant>,
    last_sign: Option<Instant>,
}

impl<'a> Worker<'a> {
    fn new(sh: &'a Shared, slot: Slot, idx: usize) -> Self {
        // Thread ids are unique per (slice, client); the warm-up uses the
        // ids past the last slice.
        let thread = if slot.window { slot.slice } else { 1 << 10 } as u64 * 2 + idx as u64;
        Worker {
            sh,
            slot,
            idx: thread,
            rng: StdRng::seed_from_u64(sh.seed.wrapping_mul(31).wrapping_add(thread + 1)),
            out: ThreadOut {
                slice: slot.slice,
                ..ThreadOut::default()
            },
            tracer: Tracer::new(sh.epoch, thread),
            next_op: 0,
            last_sample: None,
            last_sign: None,
        }
    }

    fn issue(&mut self, sn: SerialNumber, submit: Instant) -> Issued {
        self.next_op += 1;
        let window = self.slot.window;
        let sampled = self.slot.traced
            && self
                .last_sample
                .is_none_or(|t| submit.duration_since(t) >= SAMPLE_GAP);
        if sampled {
            self.last_sample = Some(submit);
        }
        if window {
            self.out.attempted += 1;
        }
        Issued {
            sn,
            submit,
            op: (self.idx << 40) | self.next_op,
            window,
            sampled,
        }
    }

    fn issue_read(&mut self) -> Issued {
        // ordering: the writer publishes a serial number only after its
        // write returned; readers need no other data from it.
        let hi = self.sh.oracle.issued_hi.load(Ordering::Relaxed).max(1);
        let sn = SerialNumber(1 + below(&mut self.rng, hi));
        self.issue(sn, Instant::now())
    }

    fn fail(&mut self, op: &Issued) {
        if op.window {
            self.out.failed += 1;
        }
    }

    /// Completes one read: verifies, judges and, for a sampled read,
    /// replays the layers it crossed.
    fn complete_read(&mut self, op: Issued, resp: NetResponse) {
        let done = Instant::now();
        let NetResponse::Outcome(outcome) = &resp else {
            // Server errors (including a CODE_BUSY shed) and unexpected
            // response types count as failed operations.
            self.fail(&op);
            return;
        };
        let root = if op.sampled { self.tracer.reserve() } else { 0 };
        let vstart = Instant::now();
        let verdict = self.sh.verifier.verify_read(op.sn, outcome);
        let vend = Instant::now();
        let judged = self.sh.oracle.judge(op.sn, outcome, verdict);
        match judged {
            Err(v) => {
                self.out.violations.push(v);
                self.fail(&op);
                return;
            }
            Ok(deleted) if op.window => {
                self.out.verdicts += 1;
                self.out.deleted += u64::from(deleted);
                let s = &mut self.out.reads;
                s.ops += 1;
                s.lat.push(done.duration_since(op.submit).as_nanos() as u64);
            }
            Ok(_) => {}
        }
        if op.sampled {
            self.tracer
                .record("wormnet.call", op.op, root, op.submit, done);
            self.tracer
                .record("strongworm.verify", op.op, root, vstart, vend);
            let data = match outcome {
                ReadOutcome::Data { records, .. } => records.first().map(|r| r.to_vec()),
                _ => None,
            };
            self.replay_read(op.op, root, op.sn);
            self.replay(op.op, root, op.sn, &resp, data.as_deref());
            self.tracer
                .record_as(root, "read", op.op, 0, op.submit, Instant::now());
        }
    }

    /// Times one in-process `WormServer::read` of `sn`.
    fn replay_read(&mut self, op: u64, root: u64, sn: SerialNumber) -> Option<ReadOutcome> {
        let sh = self.sh;
        self.out.replay_reads += 1;
        let replayed = self
            .tracer
            .time("strongworm.read", op, root, || sh.server.read(sn));
        match replayed {
            Ok(outcome) => Some(outcome),
            Err(e) => {
                self.out
                    .violations
                    .push(format!("{sn}: in-process read failed: {e}"));
                None
            }
        }
    }

    /// Replays, in process, the per-layer work behind one sampled
    /// operation on `sn`: response codec, store read, and the crypto
    /// primitives on the bench-owned key.
    fn replay(
        &mut self,
        op: u64,
        root: u64,
        sn: SerialNumber,
        resp: &NetResponse,
        data: Option<&[u8]>,
    ) {
        let sh = self.sh;
        let encoded = self
            .tracer
            .time("wormnet.encode", op, root, || encode_response(resp));
        let decoded = self
            .tracer
            .time("wormnet.decode", op, root, || decode_response(&encoded));
        if decoded.is_err() {
            self.out
                .violations
                .push(format!("{sn}: response codec round trip failed"));
        }
        let rdl = match sh.server.vrdt().lookup(sn) {
            Lookup::Active(vrd) => vrd.rdl.clone(),
            _ => Vec::new(),
        };
        if !rdl.is_empty() {
            let ok = self.tracer.time("wormstore.store_read", op, root, || {
                rdl.iter().all(|rd| sh.server.store().read(rd).is_ok())
            });
            if !ok {
                self.out.violations.push(format!("{sn}: store read failed"));
            }
        }
        if let Some(probe) = &sh.probe {
            let digest = data.map(|d| {
                self.tracer
                    .time("wormcrypt.sha256", op, root, || Sha256::digest_array(d))
            });
            let ok = self.tracer.time("wormcrypt.rsa_verify", op, root, || {
                probe
                    .key
                    .public()
                    .verify(&probe.msg, &probe.sig, HashAlg::Sha256)
            });
            if !ok {
                self.out
                    .violations
                    .push("probe signature failed to verify".into());
            }
            let now = Instant::now();
            if let Some(digest) = digest {
                if self
                    .last_sign
                    .is_none_or(|t| now.duration_since(t) >= SIGN_GAP)
                {
                    self.last_sign = Some(now);
                    let signed = self.tracer.time("wormcrypt.rsa_sign", op, root, || {
                        probe.key.sign(&digest, HashAlg::Sha256)
                    });
                    if signed.is_err() {
                        self.out.violations.push("probe key failed to sign".into());
                    }
                }
            }
        }
    }

    /// Commits one write over `client`, timing from `due` (the submit
    /// time for closed loops, the scheduled time for open loops).
    fn write(
        &mut self,
        client: &mut RemoteWormClient,
        data: &[u8],
        stamp: u64,
        due: Instant,
    ) -> Result<Option<SerialNumber>, NetError> {
        let op = self.issue(SerialNumber(0), Instant::now());
        let root = if op.sampled { self.tracer.reserve() } else { 0 };
        let res = client.write_with(&[data], long_retention(), 0, WitnessMode::Strong);
        let done = Instant::now();
        let sn = match res {
            Ok(sn) => sn,
            Err(NetError::Remote { .. }) => {
                self.fail(&op);
                return Ok(None);
            }
            Err(e) => {
                self.fail(&op);
                return Err(e);
            }
        };
        if op.window {
            let s = &mut self.out.writes;
            s.ops += 1;
            s.bytes += data.len() as u64;
            s.lat.push(done.duration_since(due).as_nanos() as u64);
            self.out.written.push((sn, stamp, data.len()));
        }
        if op.sampled {
            self.tracer
                .record("strongworm.write_call", op.op, root, op.submit, done);
            let sh = self.sh;
            if let Some(outcome) = self.replay_read(op.op, root, sn) {
                let vstart = Instant::now();
                let verdict = sh.verifier.verify_read(sn, &outcome);
                self.tracer
                    .record("strongworm.verify", op.op, root, vstart, Instant::now());
                match sh.oracle.judge(sn, &outcome, verdict) {
                    Ok(_) => {
                        let resp = NetResponse::Outcome(outcome);
                        self.replay(op.op, root, sn, &resp, Some(data));
                    }
                    Err(v) => self.out.violations.push(v),
                }
            }
            self.tracer
                .record_as(root, "write", op.op, 0, op.submit, Instant::now());
        }
        Ok(Some(sn))
    }

    fn finish(mut self) -> ThreadOut {
        self.out.spans = self.tracer.into_spans();
        self.out
    }

    fn stopping(&self) -> bool {
        // ordering: a flag polled for timeliness; the thread join orders
        // everything the slice hands back.
        self.sh.stop.load(Ordering::Relaxed)
    }
}

/// Runs `session` on `client`, reconnecting after transport failures
/// (the failed operations are already counted) until the slice ends.
fn with_reconnect<'a>(
    sh: &'a Shared,
    slot: Slot,
    idx: usize,
    mut client: RemoteWormClient,
    mut session: impl FnMut(&mut Worker<'a>, &mut RemoteWormClient) -> Result<(), NetError>,
) -> (ThreadOut, RemoteWormClient) {
    let mut w = Worker::new(sh, slot, idx);
    loop {
        match session(&mut w, &mut client) {
            Ok(()) => return (w.finish(), client),
            Err(_) => loop {
                // Keep honouring the stop while the server is
                // unreachable, so the run still ends.
                if w.stopping() {
                    return (w.finish(), client);
                }
                if let Ok(c) = RemoteWormClient::connect(sh.addr) {
                    client = c;
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            },
        }
    }
}

/// Read-hot client: closed loop, pipeline depth 8, serial numbers drawn
/// uniformly from the corpus.
pub fn read_hot(
    sh: &Shared,
    slot: Slot,
    idx: usize,
    client: RemoteWormClient,
) -> (ThreadOut, RemoteWormClient) {
    let mut issued: VecDeque<Issued> = VecDeque::new();
    with_reconnect(sh, slot, idx, client, move |w, client| {
        let res = pipelined_reads(w, client, &mut issued);
        for op in issued.drain(..) {
            w.fail(&op);
        }
        res
    })
}

fn pipelined_reads(
    w: &mut Worker<'_>,
    client: &mut RemoteWormClient,
    issued: &mut VecDeque<Issued>,
) -> Result<(), NetError> {
    let mut pipe = client.pipeline(PIPELINE_DEPTH);
    loop {
        if w.stopping() {
            while let Some(resp) = pipe.recv()? {
                let op = issued.pop_front().expect("a response pairs with a request");
                w.complete_read(op, resp);
            }
            return Ok(());
        }
        // Fill the window, then drain half of it: the half-window
        // departs as one coalesced write and its responses arrive in
        // few reads, the cadence a pipelined consumer settles into.
        while pipe.in_flight() < PIPELINE_DEPTH {
            let op = w.issue_read();
            let sn = op.sn;
            issued.push_back(op);
            if let Some(resp) = pipe.send(&NetRequest::Read { sn })? {
                let op = issued.pop_front().expect("a response pairs with a request");
                w.complete_read(op, resp);
            }
        }
        while pipe.in_flight() > PIPELINE_DEPTH / 2 {
            let Some(resp) = pipe.recv()? else { break };
            let op = issued.pop_front().expect("a response pairs with a request");
            w.complete_read(op, resp);
        }
    }
}

/// Archive reader: closed loop, one request at a time, serial numbers
/// drawn uniformly over everything issued so far.
pub fn archive_reader(
    sh: &Shared,
    slot: Slot,
    idx: usize,
    client: RemoteWormClient,
) -> (ThreadOut, RemoteWormClient) {
    with_reconnect(sh, slot, idx, client, |w, client| loop {
        if w.stopping() {
            return Ok(());
        }
        let op = w.issue_read();
        match client.read_raw(op.sn) {
            Ok(outcome) => w.complete_read(op, NetResponse::Outcome(outcome)),
            Err(NetError::Remote { .. }) => w.fail(&op),
            Err(e) => {
                w.fail(&op);
                return Err(e);
            }
        }
    })
}

/// Uniform in `[0, n)` for `n >= 1` (modulo bias is below 2^-40 here).
pub fn below(rng: &mut StdRng, n: u64) -> u64 {
    rng.next_u64() % n
}

/// Uniform in `[0, 1)`.
pub fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Log-uniform record size in `[lo, hi]`.
fn log_uniform(rng: &mut StdRng, lo: usize, hi: usize) -> usize {
    let u = unit(rng);
    let (a, b) = ((lo as f64).ln(), (hi as f64).ln());
    ((a + u * (b - a)).exp() as usize).clamp(lo, hi)
}

/// Ingest client: closed loop, one write outstanding, long retention,
/// sizes log-uniform over Figure 1's 1 KiB to 64 KiB range.
pub fn ingest(
    sh: &Shared,
    slot: Slot,
    idx: usize,
    client: RemoteWormClient,
) -> (ThreadOut, RemoteWormClient) {
    let mut n: u64 = 0;
    with_reconnect(sh, slot, idx, client, move |w, client| loop {
        if w.stopping() {
            return Ok(());
        }
        n += 1;
        let stamp = ((w.idx + 1) << 40) | n;
        let len = log_uniform(&mut w.rng, 1 << 10, 64 << 10);
        let data = payload(w.sh.seed, stamp, len);
        w.write(client, &data, stamp, Instant::now())?;
    })
}

/// Archive writer schedule.
pub struct WritePlan {
    /// Offered writes per second.
    pub rate: f64,
    /// Virtual time each write advances the trusted clock by.
    pub step: Duration,
    /// A wire `tick` follows every this many writes.
    pub tick_every: u64,
}

/// Archive writer: open loop at a fixed rate, 4 KiB records, each write
/// advancing the virtual clock, with a Retention Monitor tick every few
/// writes. Write latency runs from each write's due time.
pub fn archive_writer(
    sh: &Shared,
    slot: Slot,
    idx: usize,
    client: RemoteWormClient,
    plan: &WritePlan,
    record_bytes: usize,
) -> (ThreadOut, RemoteWormClient) {
    let interval = Duration::from_secs_f64(1.0 / plan.rate);
    // ordering: only the writer thread raises the bound, and the previous
    // slice's writer was joined before this one started.
    let mut next_sn = sh.oracle.issued_hi.load(Ordering::Relaxed) + 1;
    let mut k: u32 = 0;
    // Each slice starts its own schedule rather than catching up on the
    // gap between slices.
    let start = Instant::now();
    with_reconnect(sh, slot, idx, client, move |w, client| loop {
        if w.stopping() {
            return Ok(());
        }
        let due = start + interval * k;
        k += 1;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        if w.slot.window {
            w.out
                .late
                .push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
        }
        w.sh.clock.advance(plan.step);
        let data = payload(w.sh.seed, next_sn, record_bytes);
        if let Some(sn) = w.write(client, &data, next_sn, due)? {
            if sn.0 != next_sn {
                w.sh.oracle.stamps_exact.store(false, Ordering::Relaxed); // ordering: see `stamped`
            }
            next_sn = sn.0 + 1;
            w.sh.oracle.issued_hi.fetch_max(sn.0, Ordering::Relaxed); // ordering: see `issue_read`
        } else {
            w.sh.oracle.stamps_exact.store(false, Ordering::Relaxed); // ordering: see `stamped`
        }
        if u64::from(k) % plan.tick_every == 0 {
            let op = w.issue(SerialNumber(0), Instant::now());
            match client.tick() {
                Ok(()) => {}
                Err(NetError::Remote { .. }) => w.fail(&op),
                Err(e) => {
                    w.fail(&op);
                    return Err(e);
                }
            }
        }
    })
}

/// Reads back `sample` of the committed writes over the wire and checks
/// each verifies intact with the bytes that were written.
pub fn check_written(
    sh: &Shared,
    client: &mut RemoteWormClient,
    sample: &[(SerialNumber, u64, usize)],
) -> Vec<String> {
    let mut violations = Vec::new();
    for &(sn, stamp, len) in sample {
        let outcome = match client.read_raw(sn) {
            Ok(o) => o,
            Err(e) => {
                violations.push(format!("{sn}: read-back failed: {e}"));
                continue;
            }
        };
        match (sh.verifier.verify_read(sn, &outcome), &outcome) {
            (Ok(ReadVerdict::Intact { .. }), ReadOutcome::Data { records, .. }) => {
                let got = records.first();
                if got.map(|r| r.len()) != Some(len) || got.and_then(|r| stamp_of(r)) != Some(stamp)
                {
                    violations.push(format!("{sn}: read-back bytes differ from the write"));
                }
            }
            (verdict, _) => violations.push(format!("{sn}: read-back verdict {verdict:?}")),
        }
    }
    violations
}

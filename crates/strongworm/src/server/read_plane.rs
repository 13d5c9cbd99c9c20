//! The concurrent read plane.
//!
//! §4.1/§4.2.2: reads are served "at full throughput, with main CPU
//! cycles only" — no SCPU round-trip. The read plane owns *shared* handles
//! to the VRDT and the record store and serves any number of reader
//! threads through `&self`; the witness plane mutates the same structures
//! behind its own serialization.
//!
//! Consistency: a reader resolves a serial number and fetches the record
//! bytes **while holding the VRDT read lock**. The witness plane expires
//! an entry under the write lock *before* shredding its extents, so a
//! reader that observed `Active` is guaranteed un-shredded bytes, and a
//! reader arriving after expiry gets the deletion proof — never torn
//! state.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use scpu::Clock;
use wormstore::{BlockDevice, RecordStore};

use crate::error::WormError;
use crate::proofs::{DeletionEvidence, HeadCert, ReadOutcome};
use crate::sn::SerialNumber;
use crate::vrdt::{Lookup, Vrdt};

/// Outcome of a read-plane attempt: either fully served from host state,
/// or blocked on evidence only the witness plane can refresh.
pub(crate) enum ReadStep {
    /// Served entirely from shared host state.
    Done(ReadOutcome),
    /// The SN is below the base but the base certificate has expired; the
    /// witness plane must re-issue it before evidence can be assembled.
    NeedFreshBase {
        /// The head certificate already cloned under the same read lock.
        head: HeadCert,
    },
}

/// The lock-shared, SCPU-free half of the server (see module docs).
pub struct ReadPlane<D: BlockDevice> {
    vrdt: Arc<RwLock<Vrdt>>,
    store: Arc<RecordStore<D>>,
    clock: Arc<dyn Clock>,
    head_refresh_interval: Duration,
}

impl<D: BlockDevice> ReadPlane<D> {
    pub(crate) fn new(
        vrdt: Arc<RwLock<Vrdt>>,
        store: Arc<RecordStore<D>>,
        clock: Arc<dyn Clock>,
        head_refresh_interval: Duration,
    ) -> Self {
        ReadPlane {
            vrdt,
            store,
            clock,
            head_refresh_interval,
        }
    }

    /// The shared record store.
    pub fn store(&self) -> &RecordStore<D> {
        &self.store
    }

    /// Read access to the shared VRDT. The guard blocks witness-plane
    /// mutations while held — keep it short-lived.
    pub fn vrdt(&self) -> RwLockReadGuard<'_, Vrdt> {
        self.vrdt.read()
    }

    /// Write access to the shared VRDT (adversarial test hook).
    pub(crate) fn vrdt_write(&self) -> RwLockWriteGuard<'_, Vrdt> {
        self.vrdt.write()
    }

    /// The VRDT's mutation epoch ([`Vrdt::epoch`]) while the head is
    /// fresh, or `None` while it is missing or older than the refresh
    /// interval — a cheap probe readers use to decide if the witness
    /// plane must refresh the head before serving.
    ///
    /// Two reads of one SN under the same `Some` epoch return the same
    /// outcome (below-base evidence aside, whose validity also lapses
    /// with the base certificate's expiry), so a caller may reuse a
    /// response for as long as the epoch it took *before* the read is
    /// still current.
    pub fn read_epoch(&self) -> Option<u64> {
        let vrdt = self.vrdt.read();
        let head = vrdt.head()?;
        (self.clock.now().since(head.issued_at) <= self.head_refresh_interval).then(|| vrdt.epoch())
    }

    /// Resolves `sn` and assembles evidence from shared host state alone.
    ///
    /// Single lookup: the match arms clone what they need out of the
    /// table, and for an active record the store reads happen under the
    /// same VRDT read guard that proved it active.
    pub(crate) fn read(&self, sn: SerialNumber) -> Result<ReadStep, WormError> {
        let vrdt = self.vrdt.read();
        // The facade installs a head at boot, but this path is reachable
        // from remote requests: if the head is absent (failed lazy
        // refresh after a device tamper, or a hostile caller racing
        // recovery) the request must fail, never take the server down.
        let head = vrdt.head().cloned().ok_or_else(|| {
            WormError::Firmware("no head certificate installed; freshness refresh failed".into())
        })?;
        match vrdt.lookup(sn) {
            Lookup::Active(v) => {
                let vrd = v.clone();
                let mut records = Vec::with_capacity(vrd.rdl.len());
                for rd in &vrd.rdl {
                    records.push(self.store.read(rd)?);
                }
                Ok(ReadStep::Done(ReadOutcome::Data { vrd, records, head }))
            }
            Lookup::Expired(p) => Ok(ReadStep::Done(ReadOutcome::Deleted {
                evidence: DeletionEvidence::Proof(p.clone()),
                head,
            })),
            Lookup::InWindow(w) => Ok(ReadStep::Done(ReadOutcome::Deleted {
                evidence: DeletionEvidence::InWindow(w.clone()),
                head,
            })),
            Lookup::BelowBase => match vrdt.base() {
                Some(b) if b.expires_at > self.clock.now() => {
                    Ok(ReadStep::Done(ReadOutcome::Deleted {
                        evidence: DeletionEvidence::BelowBase(b.clone()),
                        head,
                    }))
                }
                _ => Ok(ReadStep::NeedFreshBase { head }),
            },
            Lookup::Unknown => {
                if sn > head.sn_current {
                    Ok(ReadStep::Done(ReadOutcome::NeverExisted { head }))
                } else {
                    // A hole at or below the head means the VRDT was
                    // corrupted out-of-band; an honest server cannot
                    // produce evidence for it.
                    Err(WormError::Firmware(format!(
                        "vrdt has no entry or window for {sn} at or below the head"
                    )))
                }
            }
        }
    }
}

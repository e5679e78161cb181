//! The run core under the batch ([`crate::campaign`]), streaming
//! ([`crate::streaming`]) and real ([`crate::realrun`]) drivers.
//!
//! The drivers keep their own scheduling policies — batch stage barriers
//! and one bulk transfer, per-file streaming flows, a thread pool over real
//! kernels — but share the plumbing every one of them needs:
//!
//! * [`JournalGate`]: resume validation, append-or-halt, and the
//!   skip-if-resumed `StageStarted`/`StageFinished` writers;
//! * [`shipment_manifest`]: the one manifest builder, fed each artifact's
//!   digest by the caller (synthetic in virtual time, content on disk);
//! * [`ledger_quantum`]: open → run → reopen → compact of one ledger
//!   namespace, behind every multi-day entry point;
//! * [`Workers`]: a sim stage's busy-worker count, mirrored into telemetry.

use crate::chaos::{DEST_FACILITY, SOURCE_FACILITY};
use crate::provenance::ProvenanceLog;
use crate::scheduler::DayRun;
use crate::telemetry::Telemetry;
use eoml_journal::{
    CampaignState, FileStorage, Journal, JournalError, JournalEvent, Ledger, Storage,
};
use eoml_simtime::SimTime;
use eoml_transfer::manifest::{ArtifactEntry, JournalDigest, LineageRecord, ShipmentManifest};
use eoml_transfer::sync::JournalSync;
use eoml_util::timebase::CivilDate;
use std::collections::{BTreeSet, VecDeque};

/// Object-safe journal handle a driver appends through; lets the drivers
/// stay non-generic over the journal's [`Storage`] backend.
pub(crate) trait JournalSink {
    /// Append one event durably.
    fn append(&mut self, event: JournalEvent) -> Result<(), JournalError>;

    /// The journal's materialised state.
    fn state(&self) -> &CampaignState;

    /// The journal's `(events, checksum)` state digest for shipment
    /// manifests.
    fn state_digest(&self) -> (u64, u64);
}

impl<S: Storage> JournalSink for Journal<S> {
    fn append(&mut self, event: JournalEvent) -> Result<(), JournalError> {
        Journal::append(self, event)
    }

    fn state(&self) -> &CampaignState {
        Journal::state(self)
    }

    fn state_digest(&self) -> (u64, u64) {
        Journal::state_digest(self)
    }
}

impl<J: JournalSink + ?Sized> JournalSink for &mut J {
    fn append(&mut self, event: JournalEvent) -> Result<(), JournalError> {
        (**self).append(event)
    }

    fn state(&self) -> &CampaignState {
        (**self).state()
    }

    fn state_digest(&self) -> (u64, u64) {
        (**self).state_digest()
    }
}

/// A driver's view of its (optional) write-ahead journal: the sink, the
/// state it resumed from, and whether an append has failed.
///
/// Once an append fails (the injected kill point, or storage trouble) the
/// gate is *halted*: the failed event and everything after it are not
/// durable, so the driver must stop scheduling work.
#[derive(Default)]
pub(crate) struct JournalGate<'j> {
    sink: Option<Box<dyn JournalSink + 'j>>,
    resume: CampaignState,
    halted: bool,
}

impl<'j> JournalGate<'j> {
    /// Open `journal` for a run of `seed` under the driver `label`.
    ///
    /// A journal that already records a campaign must record this seed
    /// and this label, or [`JournalError::Foreign`] is returned and
    /// nothing is appended; a fresh journal gets its `CampaignStarted`.
    pub fn open(
        journal: impl JournalSink + 'j,
        seed: u64,
        label: &str,
    ) -> Result<Self, JournalError> {
        let resume = journal.state().clone();
        if let Some(found) = resume.seed.filter(|&s| s != seed) {
            return Err(JournalError::Foreign(format!(
                "journal belongs to seed {found}, the run uses seed {seed}"
            )));
        }
        if let Some(found) = resume.label.as_deref().filter(|&l| l != label) {
            return Err(JournalError::Foreign(format!(
                "journal belongs to a {found:?} run, not a {label:?} run"
            )));
        }
        let mut gate = JournalGate {
            sink: Some(Box::new(journal)),
            resume,
            halted: false,
        };
        if gate.resume.seed.is_none() {
            gate.record(JournalEvent::CampaignStarted {
                seed,
                label: label.into(),
            })?;
        }
        Ok(gate)
    }

    /// The journal state the run resumed from (empty when unjournaled).
    pub fn resume(&self) -> &CampaignState {
        &self.resume
    }

    /// Whether the run is journaled.
    pub fn is_journaled(&self) -> bool {
        self.sink.is_some()
    }

    /// Whether an append has failed; the run must stop.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Append `event` (a no-op when unjournaled). A failed append halts
    /// the gate.
    pub fn record(&mut self, event: JournalEvent) -> Result<(), JournalError> {
        let Some(sink) = &mut self.sink else {
            return Ok(());
        };
        sink.append(event).inspect_err(|_| self.halted = true)
    }

    /// Journal `StageStarted` unless the resumed state already has it.
    pub fn stage_started(&mut self, stage: &str) -> Result<(), JournalError> {
        if self.resume.stages_started.contains(stage) {
            return Ok(());
        }
        self.record(JournalEvent::StageStarted {
            stage: stage.into(),
        })
    }

    /// Journal `StageFinished` unless the resumed state already has it.
    pub fn stage_finished(&mut self, stage: &str) -> Result<(), JournalError> {
        if self.resume.stage_done(stage) {
            return Ok(());
        }
        self.record(JournalEvent::StageFinished {
            stage: stage.into(),
        })
    }

    /// The journal's current `(events, checksum)` digest, if journaled.
    pub fn digest(&self) -> Option<(u64, u64)> {
        self.sink.as_ref().map(|s| s.state_digest())
    }

    /// The journal-sync payload that travels with a shipment: the current
    /// digest plus the full materialised state. `None` when unjournaled.
    pub fn sync(&self) -> Option<JournalSync> {
        let sink = self.sink.as_ref()?;
        let (events, checksum) = sink.state_digest();
        Some(JournalSync::from_parts(
            events,
            checksum,
            sink.state().to_json(),
        ))
    }
}

/// Assemble a shipment manifest from `SOURCE_FACILITY` to
/// `DEST_FACILITY`: one [`ArtifactEntry`] per `(name, bytes, digest)`
/// artifact, the upstream lineage slice behind each artifact from `prov`,
/// and the journal's compaction-invariant state digest when journaled.
///
/// Artifacts are sorted by name, because artifact order feeds the
/// manifest id: an interrupted and resumed run (whose completion order
/// differs) still produces the same id, the destination's idempotency key.
pub(crate) fn shipment_manifest(
    mut artifacts: Vec<(String, u64, u64)>,
    prov: &ProvenanceLog,
    journal: Option<(u64, u64)>,
    now_s: f64,
) -> ShipmentManifest {
    let mut manifest = ShipmentManifest::new(SOURCE_FACILITY, DEST_FACILITY, now_s);
    manifest.journal = journal.map(|(events, checksum)| JournalDigest { events, checksum });
    artifacts.sort_by(|a, b| a.0.cmp(&b.0));
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for (name, bytes, digest) in artifacts {
        // The lineage slice: the destination-side record plus everything
        // upstream of it, deduplicated — shared ancestors (a granule's
        // three MODIS products, say) appear once.
        let shipped = format!("orion:{name}");
        let mut chain = vec![shipped.clone()];
        chain.extend(prov.lineage(&shipped));
        for artifact in &chain {
            for rec in prov.producers(artifact) {
                if seen.insert((rec.artifact.clone(), rec.activity.clone())) {
                    manifest.lineage.push(LineageRecord {
                        artifact: rec.artifact.clone(),
                        activity: rec.activity.clone(),
                        inputs: rec.inputs.clone(),
                        agent: rec.agent.clone(),
                        at_s: rec.at_s,
                    });
                }
            }
        }
        manifest.artifacts.push(ArtifactEntry {
            trace_id: crate::campaign::granule_trace_id(&name),
            name,
            bytes,
            digest,
        });
    }
    manifest
}

/// One ledger quantum: open (or recover) `namespace`'s journal, `run` a
/// single-day resumable driver for `date` against it, then reopen and
/// compact the journal down to snapshot + tail. Killing the process
/// anywhere inside leaves a journal that resumes.
pub(crate) fn ledger_quantum<R, E: From<JournalError>>(
    ledger: &Ledger,
    namespace: &str,
    date: CivilDate,
    run: impl FnOnce(Journal<FileStorage>) -> Result<R, E>,
) -> Result<DayRun<R>, E> {
    let (journal, recovery) = ledger.open(namespace)?;
    let report = run(journal)?;
    let (mut journal, _) = ledger.open(namespace)?;
    journal.compact()?;
    Ok(DayRun {
        date,
        namespace: namespace.to_string(),
        recovered_events: recovery.events,
        report,
    })
}

/// A simulated stage's busy-worker count, mirrored into the telemetry
/// activity timeline (Fig. 6) on every change.
pub(crate) struct Workers {
    stage: &'static str,
    active: usize,
}

impl Workers {
    /// No busy workers yet.
    pub fn new(stage: &'static str) -> Self {
        Workers { stage, active: 0 }
    }

    /// Busy workers right now.
    pub fn active(&self) -> usize {
        self.active
    }

    /// The next job of `queue` when fewer than `limit` workers are busy,
    /// with one more worker marked busy at `now`.
    pub fn take<T>(
        &mut self,
        queue: &mut VecDeque<T>,
        limit: usize,
        tel: &mut Telemetry,
        now: SimTime,
    ) -> Option<T> {
        if self.active >= limit {
            return None;
        }
        let job = queue.pop_front()?;
        self.active += 1;
        tel.activity_change(self.stage, now, self.active);
        Some(job)
    }

    /// One worker freed at `now`.
    pub fn finish(&mut self, tel: &mut Telemetry, now: SimTime) {
        self.active -= 1;
        tel.activity_change(self.stage, now, self.active);
    }
}

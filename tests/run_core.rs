//! The run core shared by the batch, streaming and real drivers.
//!
//! * Golden pins: each driver's report digest, manifest id, journal
//!   length and work checksum on a fixed configuration. A moved pin is a
//!   behaviour change of that driver, not a refactor.
//! * Cross-driver journal guard: every resumable driver rejects a journal
//!   another driver wrote, with a typed error, and appends nothing to it.

use eoml::core::campaign::{
    granule_trace_id, run_campaign_resumable, CampaignParams, CampaignReport,
};
use eoml::core::realrun::{RealPipeline, RealRunError};
use eoml::core::streaming::{run_streaming_campaign_resumable, StreamingError, StreamingParams};
use eoml::journal::{Journal, JournalError, MemStorage};
use eoml::modis::granule::GranuleId;
use eoml::modis::product::Platform;
use eoml::modis::synth::{SwathDims, SwathSynthesizer};
use eoml::transfer::manifest::content_digest;
use eoml::util::timebase::CivilDate;
use std::path::PathBuf;

const SEED: u64 = 2022;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "eoml-run-core-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn streaming_params() -> StreamingParams {
    StreamingParams {
        base: CampaignParams::small(),
        ..StreamingParams::demo()
    }
}

fn pipeline(workdir: &std::path::Path) -> RealPipeline {
    RealPipeline::new(workdir, SEED, SwathDims::small(), 32, 2)
        .unwrap()
        .with_thresholds(0.0, 0.0)
}

/// The first two day granules of 2022-01-01 (Terra).
fn day_granules() -> Vec<GranuleId> {
    let sy = SwathSynthesizer::new(SEED, SwathDims::small());
    let date = CivilDate::new(2022, 1, 1).unwrap();
    (0..288)
        .map(|slot| GranuleId::new(Platform::Terra, date, slot))
        .filter(|&g| sy.synthesize(g).day)
        .take(2)
        .collect()
}

/// `(report digest, manifest id, journal len, work checksum)` of one
/// journaled batch campaign on `CampaignParams::small()`.
fn batch_pins() -> (u64, String, usize, u64) {
    let store = MemStorage::new();
    let (journal, _) = Journal::open(store.clone()).unwrap();
    let report: CampaignReport = run_campaign_resumable(CampaignParams::small(), journal).unwrap();
    let (journal, _) = Journal::open(store).unwrap();
    (
        content_digest(report.to_json().to_string().as_bytes()),
        report.manifest.expect("batch manifest").id(),
        journal.len(),
        journal.state().work_checksum(),
    )
}

fn streaming_pins() -> (u64, String, usize, u64) {
    let store = MemStorage::new();
    let (journal, _) = Journal::open(store.clone()).unwrap();
    let report = run_streaming_campaign_resumable(streaming_params(), journal).unwrap();
    let manifest = report.manifest.expect("streaming manifest");
    let doc = serde_json::json!({
        "granules_downloaded": report.granules_downloaded,
        "granules_preprocessed": report.granules_preprocessed,
        "labeled_files": report.labeled_files,
        "shipped_files": report.shipped_files,
        "downloaded": report.downloaded.as_u64(),
        "shipped": report.shipped.as_u64(),
        "makespan_s": report.makespan_s,
        "stages": report
            .stages
            .iter()
            .map(|s| {
                serde_json::json!([
                    s.name,
                    s.started.as_secs_f64(),
                    s.finished.as_secs_f64(),
                    s.items,
                    s.bytes.as_u64(),
                ])
            })
            .collect::<Vec<_>>(),
        "telemetry": report.telemetry.to_json(),
        "manifest": manifest.to_json(),
    });
    let (journal, _) = Journal::open(store).unwrap();
    (
        content_digest(doc.to_string().as_bytes()),
        manifest.id(),
        journal.len(),
        journal.state().work_checksum(),
    )
}

#[test]
fn batch_campaign_golden_pins() {
    let (digest, id, len, work) = batch_pins();
    assert_eq!(
        (digest, id.as_str(), len, work),
        (BATCH_DIGEST, BATCH_MANIFEST, BATCH_LEN, BATCH_WORK),
        "batch pins moved: digest {digest:#018x}, id {id}, len {len}, work {work:#018x}"
    );
}

#[test]
fn streaming_campaign_golden_pins() {
    let (digest, id, len, work) = streaming_pins();
    assert_eq!(
        (digest, id.as_str(), len, work),
        (STREAM_DIGEST, STREAM_MANIFEST, STREAM_LEN, STREAM_WORK),
        "streaming pins moved: digest {digest:#018x}, id {id}, len {len}, work {work:#018x}"
    );
}

#[test]
fn real_run_golden_pins() {
    let granules = day_granules();
    assert_eq!(granules.len(), 2);
    let dir = tempdir("golden");
    let (mut journal, _) = Journal::open(MemStorage::new()).unwrap();
    let report = pipeline(&dir)
        .run_resumable(&granules, &mut journal)
        .unwrap();
    let id = report.manifest.expect("real manifest").id();
    let work = journal.state().work_checksum();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(
        (id.as_str(), work),
        (REAL_MANIFEST, REAL_WORK),
        "real-run pins moved: id {id}, work {work:#018x}"
    );
}

const BATCH_DIGEST: u64 = 0xf47d_fbc9_8199_343c;
const BATCH_MANIFEST: &str = "ace-defiant-15efc6cc566d7063";
const BATCH_LEN: usize = 24;
const BATCH_WORK: u64 = 0x35fa_d997_41b4_5804;
const STREAM_DIGEST: u64 = 0xb327_e40e_62b7_daf6;
const STREAM_MANIFEST: &str = "ace-defiant-a2c2731d1875df3c";
const STREAM_LEN: usize = 18;
const STREAM_WORK: u64 = 0x6255_0201_9b5c_ff08;
const REAL_MANIFEST: &str = "ace-defiant-b3b2371981789e5e";
const REAL_WORK: u64 = 0xee8c_63aa_a215_fe4e;

/// The three resumable drivers, each run once against `store` (which may
/// already hold another driver's journal). `Ok(())` on success, the
/// driver's journal error otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Driver {
    Batch,
    Streaming,
    Real,
}

impl Driver {
    fn run(self, store: &MemStorage) -> Result<(), JournalError> {
        let (journal, _) = Journal::open(store.clone()).unwrap();
        match self {
            Driver::Batch => run_campaign_resumable(CampaignParams::small(), journal).map(drop),
            Driver::Streaming => run_streaming_campaign_resumable(streaming_params(), journal)
                .map(drop)
                .map_err(|e| match e {
                    StreamingError::Journal(e) => e,
                    other => panic!("streaming: unexpected {other:?}"),
                }),
            Driver::Real => {
                let dir = tempdir("guard");
                let mut journal = journal;
                let out = pipeline(&dir)
                    .run_resumable(&day_granules()[..1], &mut journal)
                    .map(drop)
                    .map_err(|e| match e {
                        RealRunError::Journal(e) => e,
                        other => panic!("real: unexpected {other:?}"),
                    });
                std::fs::remove_dir_all(&dir).unwrap();
                out
            }
        }
    }
}

#[test]
fn every_driver_rejects_every_other_drivers_journal() {
    let drivers = [Driver::Batch, Driver::Streaming, Driver::Real];
    for writer in drivers {
        let store = MemStorage::new();
        writer.run(&store).unwrap();
        let written = Journal::open(store.clone()).unwrap().0.len();
        for reader in drivers.into_iter().filter(|&d| d != writer) {
            let tag = format!("{reader:?} over a {writer:?} journal");
            match reader.run(&store) {
                Err(JournalError::Foreign(msg)) => {
                    assert!(msg.contains("belongs to"), "{tag}: {msg}")
                }
                other => panic!("{tag}: expected a foreign-journal error, got {other:?}"),
            }
            let after = Journal::open(store.clone()).unwrap().0.len();
            assert_eq!(after, written, "{tag}: the rejected journal grew");
        }
        // The writer itself still resumes its own journal.
        writer.run(&store).unwrap();
    }
}

#[test]
fn every_driver_rejects_a_journal_of_another_seed() {
    for driver in [Driver::Batch, Driver::Streaming, Driver::Real] {
        let store = MemStorage::new();
        let (mut journal, _) = Journal::open(store.clone()).unwrap();
        journal
            .append(eoml::journal::JournalEvent::CampaignStarted {
                seed: SEED + 1,
                label: "batch-campaign".into(),
            })
            .unwrap();
        drop(journal);
        assert!(
            matches!(driver.run(&store), Err(JournalError::Foreign(_))),
            "{driver:?} accepted a journal of another seed"
        );
        assert_eq!(Journal::open(store).unwrap().0.len(), 1, "{driver:?}");
    }
}

#[test]
fn granule_trace_id_rejects_malformed_tile_names() {
    assert_eq!(granule_trace_id("tiles-MOD.A2022001.2400.nc"), None);
    assert_eq!(granule_trace_id("tiles-MOD.X2022001.0005.nc"), None);
    assert_eq!(granule_trace_id("tiles-MOD.A2022001.0003.nc"), None);
}

//! The real-pipeline workloads (`real_dense`, `real_fullsize`): set-up,
//! passes, and the output check run after every pass.

use crate::inputs::{RealBatch, WORLD_SEED};
use crate::layers::{self, JournalCounts};
use crate::report::{with_peak_rss, Outcome};
use crate::stats::{median, report_passes};
use crate::trace::Tracer;
use eoml_core::{RealPipeline, RealRunReport};
use eoml_journal::{FileStorage, Journal};
use eoml_ncdf::NcFile;
use eoml_obs::Obs;
use eoml_preprocess::read_tiles_nc;
use eoml_ricc::AiccaModel;
use eoml_transfer::{content_digest, Ingestor, ReceivedArtifact};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads of the pipeline's executor and download endpoint.
pub const WORKERS: usize = 2;
/// An untraced run sets the pipeline up at least this many times, and
/// until [`SETUP_SECONDS`] are spent; `setup_s` is the median.
const MIN_SETUPS: usize = 3;
/// Set-up time an untraced run spends at least, so that a cheap set-up is
/// sampled more often than an expensive one.
const SETUP_SECONDS: f64 = 2.0;
/// Passes an untraced run makes however long they take.
const MIN_PASSES: usize = 3;
/// Journal file of a journaled pass, inside the pipeline's work directory.
const JOURNAL_FILE: &str = "journal.wal";

/// Identity of a pass's shipped output: manifest id plus every artifact
/// digest. Passes of one seed must agree exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    /// `ShipmentManifest::id`.
    pub manifest_id: String,
    /// `(artifact, content digest)` in manifest order.
    pub digests: Vec<(String, u64)>,
}

/// One timed pipeline run over the whole batch.
pub struct Pass {
    /// Wall seconds of the run (journal open included).
    pub secs: f64,
    /// The pipeline's report.
    pub report: RealRunReport,
    /// Journal work, when the run was journaled and counted.
    pub journal: Option<JournalCounts>,
}

/// Set up the pipeline for `batch` in a fresh `workdir` (model fit, land
/// mask, executor).
pub fn build(
    batch: &RealBatch,
    workdir: &Path,
    obs: Option<Arc<Obs>>,
) -> Result<RealPipeline, String> {
    let _ = std::fs::remove_dir_all(workdir);
    let mut pipeline = RealPipeline::new(workdir, WORLD_SEED, batch.dims, batch.tile_size, WORKERS)
        .map_err(|e| format!("pipeline set-up in {}: {e}", workdir.display()))?;
    if batch.accept_all {
        pipeline = pipeline.with_thresholds(0.0, 0.0);
    }
    if let Some(obs) = obs {
        pipeline = pipeline.with_obs(obs);
    }
    Ok(pipeline)
}

/// Empty the pipeline's staging directories and journal, so the next pass
/// starts from nothing.
fn reset(workdir: &Path) -> Result<(), String> {
    for sub in ["incoming", "tiles", "outbox"] {
        let dir = workdir.join(sub);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let _ = std::fs::remove_file(workdir.join(JOURNAL_FILE));
    Ok(())
}

/// Run the pipeline once over the batch, from empty staging directories.
/// A journaled batch runs `run_resumable` on a fresh file journal; with
/// `count_journal` its appends, fsyncs and recoveries are counted.
pub fn run_pass(
    batch: &RealBatch,
    pipeline: &RealPipeline,
    count_journal: bool,
) -> Result<Pass, String> {
    let workdir = pipeline.workdir();
    reset(workdir)?;
    if !batch.journaled {
        let t = Instant::now();
        let report = pipeline.run(&batch.granules)?;
        return Ok(Pass {
            secs: t.elapsed().as_secs_f64(),
            report,
            journal: None,
        });
    }
    let storage = FileStorage::new(workdir.join(JOURNAL_FILE));
    let hub = count_journal.then(Obs::shared);
    let t = Instant::now();
    let (mut journal, _) = match &hub {
        Some(hub) => Journal::open_observed(storage, Arc::clone(hub)),
        None => Journal::open(storage),
    }
    .map_err(|e| format!("journal open: {e}"))?;
    let report = pipeline
        .run_resumable(&batch.granules, &mut journal)
        .map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    Ok(Pass {
        secs,
        report,
        journal: hub.map(|h| JournalCounts::from_hub(&h)),
    })
}

/// Check a pass's output: every tile labelled, every outbox file decodes
/// with one `aicca_label` per tile, and the shipment manifest ingests
/// cleanly against the bytes actually in the outbox. The digest and
/// ingest calls are traced as the transfer layer.
pub fn verify(
    batch: &RealBatch,
    pass: &Pass,
    outbox: &Path,
    tracer: &Tracer,
) -> Result<Signature, String> {
    let report = &pass.report;
    if report.labeled_tiles != report.total_tiles {
        return Err(format!(
            "{} of {} tiles labelled",
            report.labeled_tiles, report.total_tiles
        ));
    }
    if batch.accept_all {
        let windows = (batch.dims.lines / batch.tile_size) * (batch.dims.pixels / batch.tile_size);
        let expected = windows * batch.granules.len();
        if report.total_tiles != expected {
            return Err(format!("{} tiles, expected {expected}", report.total_tiles));
        }
    }
    let manifest = report.manifest.as_ref().ok_or("pass shipped no manifest")?;
    if manifest.len() != report.outbox.len() {
        return Err(format!(
            "manifest lists {} artifacts, outbox holds {}",
            manifest.len(),
            report.outbox.len()
        ));
    }
    let mut received = Vec::with_capacity(manifest.len());
    let mut tiles = 0;
    for artifact in &manifest.artifacts {
        let path = outbox.join(&artifact.name);
        let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let digest = tracer.span("transfer", "digest", || content_digest(&bytes));
        tracer.count("transfer", "digest_bytes", bytes.len() as u64);
        received.push(ReceivedArtifact {
            name: artifact.name.clone(),
            bytes: bytes.len() as u64,
            digest,
        });
        let nc = NcFile::decode(&bytes).map_err(|e| format!("{}: {e}", artifact.name))?;
        let (file_tiles, labels) =
            read_tiles_nc(&nc).map_err(|e| format!("{}: {e}", artifact.name))?;
        match labels {
            Some(labels) if labels.len() == file_tiles.len() => tiles += file_tiles.len(),
            _ => return Err(format!("{}: labels do not match tiles", artifact.name)),
        }
    }
    if tiles != report.total_tiles {
        return Err(format!(
            "outbox holds {tiles} tiles, report says {}",
            report.total_tiles
        ));
    }
    let ingest = tracer.span("transfer", "ingest", || {
        Ingestor::new(&manifest.destination).ingest(manifest, &received, 0.0)
    });
    if !ingest.ok() {
        return Err(format!("ingest rejected the shipment: {:?}", ingest.errors));
    }
    Ok(Signature {
        manifest_id: manifest.id(),
        digests: manifest
            .artifacts
            .iter()
            .map(|a| (a.name.clone(), a.digest))
            .collect(),
    })
}

/// Output checks across the passes of one run: each pass must verify and
/// ship exactly what the first verified pass shipped.
pub struct Checker<'a> {
    batch: &'a RealBatch,
    reference: Option<Signature>,
    /// Granules attempted and failed so far.
    pub outcome: Outcome,
}

impl<'a> Checker<'a> {
    /// Checker for passes over `batch`.
    pub fn new(batch: &'a RealBatch) -> Checker<'a> {
        Checker {
            batch,
            reference: None,
            outcome: Outcome::default(),
        }
    }

    /// Check one pass result, counting its granules as attempted, and as
    /// failed when the pass errored or its output is wrong. Returns the
    /// pass when it is good.
    pub fn check(
        &mut self,
        pass: Result<Pass, String>,
        outbox: &Path,
        tracer: &Tracer,
    ) -> Option<Pass> {
        let granules = self.batch.granules.len() as u64;
        self.outcome.attempted += granules;
        let verdict = pass.and_then(|pass| {
            let signature = verify(self.batch, &pass, outbox, tracer)?;
            match self.reference.get_or_insert_with(|| signature.clone()) {
                reference if *reference == signature => Ok(pass),
                reference => Err(format!(
                    "shipment {} differs from the first pass's {}",
                    signature.manifest_id, reference.manifest_id
                )),
            }
        });
        match verdict {
            Ok(pass) => Some(pass),
            Err(e) => {
                eprintln!("pass failed its output check: {e}");
                self.outcome.failed += granules;
                None
            }
        }
    }
}

/// Untraced run: set up repeatedly, then pass over the batch until
/// `seconds` are spent (at least three passes). Reports the end-to-end
/// metrics; `peak_rss_mb` is the median over passes of each pass's peak.
pub fn untraced(batch: &RealBatch, workdir: &Path, seconds: f64) -> Result<Outcome, String> {
    let mut setup = Vec::new();
    let pipeline = loop {
        let t = Instant::now();
        let pipeline = build(batch, workdir, None)?;
        setup.push(t.elapsed().as_secs_f64());
        if setup.len() >= MIN_SETUPS && setup.iter().sum::<f64>() >= SETUP_SECONDS {
            break pipeline;
        }
    };
    let outbox = workdir.join("outbox");
    let tracer = Tracer::off();
    let mut checker = Checker::new(batch);
    let mut passes: Vec<(f64, usize)> = Vec::new();
    let mut peaks = Vec::new();
    let start = Instant::now();
    for attempt in 1.. {
        let (pass, peak) = with_peak_rss(|| run_pass(batch, &pipeline, false));
        if let Some(pass) = checker.check(pass, &outbox, &tracer) {
            passes.push((pass.secs, pass.report.labeled_tiles));
            peaks.push(peak?);
        }
        let typical = median(&passes.iter().map(|p| p.0).collect::<Vec<_>>()).unwrap_or(0.0);
        if attempt >= MIN_PASSES && start.elapsed().as_secs_f64() + typical > seconds {
            break;
        }
    }
    reset(workdir)?;
    let secs: Vec<f64> = passes.iter().map(|p| p.0).collect();
    report_passes(&secs);
    let mut out = checker.outcome;
    let missing = "no pass passed its output check";
    let rates: Vec<f64> = passes.iter().map(|&(s, t)| t as f64 / s).collect();
    out.set("tiles_per_s", median(&rates).ok_or(missing)?);
    out.set("pass_s.p50", median(&secs).ok_or(missing)?);
    out.set("setup_s", median(&setup).expect("set up at least once"));
    out.set("peak_rss_mb", median(&peaks).ok_or(missing)?);
    Ok(out)
}

/// Traced run of a real batch: set-up and model fit, the layer sweep over
/// the batch's granules, then plain passes interleaved with passes that
/// carry an [`Obs`] hub, until `deadline` (at least `min_pairs` pairs).
/// Reports the modis, preprocess, ncdf, ricc, transfer, core-stage and obs
/// layer metrics; journal counts come back when the batch is journaled.
pub fn traced(
    batch: &RealBatch,
    workdir: &Path,
    tracer: &Tracer,
    deadline: Instant,
    min_pairs: usize,
) -> Result<(Outcome, Option<JournalCounts>), String> {
    let plain = tracer.span("core", "setup", || {
        build(batch, &workdir.join("plain"), None)
    })?;
    let cfg = plain.model().encoder.cfg;
    let model = tracer.span("ricc", "model_setup", || {
        AiccaModel::pretrained(cfg, WORLD_SEED)
    });
    if model.centroids != plain.model().centroids {
        return Err("model set-up is not deterministic".into());
    }
    let mut out = layers::sweep(tracer, batch, plain.model())?;

    let hub = Obs::shared();
    let observed = build(batch, &workdir.join("observed"), Some(Arc::clone(&hub)))?;
    let mut checker = Checker::new(batch);
    let mut plain_secs = Vec::new();
    let mut observed_secs = Vec::new();
    let mut stages: [Vec<f64>; 4] = Default::default();
    let mut journal = None;
    let mut pair = Duration::ZERO;
    for round in 0.. {
        let pairs = plain_secs.len().min(observed_secs.len());
        if pairs >= min_pairs && Instant::now() + pair >= deadline {
            break;
        }
        let t = Instant::now();
        // Alternate which side runs first, so drift does not bias the
        // overhead estimate.
        for observe in [round % 2 == 1, round % 2 == 0] {
            let (pipeline, call) = match observe {
                true => (&observed, "pass_observed"),
                false => (&plain, "pass"),
            };
            // Both sides open the journal the same way, so the ratio
            // isolates the pipeline's hub.
            let pass = tracer.span("core", call, || run_pass(batch, pipeline, true));
            let outbox = pipeline.workdir().join("outbox");
            if let Some(pass) = checker.check(pass, &outbox, tracer) {
                if observe {
                    observed_secs.push(pass.secs);
                    journal = journal.or(pass.journal);
                } else {
                    plain_secs.push(pass.secs);
                    for (stage, secs) in stages.iter_mut().zip(pass.report.stage_secs) {
                        stage.push(secs);
                    }
                }
            }
            reset(pipeline.workdir())?;
        }
        pair = t.elapsed();
        if checker.outcome.failed > 0 {
            break;
        }
    }
    out.absorb(checker.outcome);
    let missing = "no traced pass passed its output check";
    for (name, secs) in [
        "core.stage.download_s",
        "core.stage.preprocess_s",
        "core.stage.inference_s",
        "core.stage.shipment_s",
    ]
    .into_iter()
    .zip(&stages)
    {
        out.set(name, median(secs).ok_or(missing)?);
    }
    let plain_median = median(&plain_secs).ok_or(missing)?;
    let observed_median = median(&observed_secs).ok_or(missing)?;
    out.set("obs.overhead_frac", observed_median / plain_median - 1.0);
    out.set(
        "obs.spans",
        hub.span_count() as f64 / observed_secs.len() as f64,
    );
    out.set(
        "ricc.model_setup_s",
        median(&tracer.secs("ricc", "model_setup")).ok_or("model set-up not traced")?,
    );
    let digest_secs = tracer.total("transfer", "digest");
    out.set(
        "transfer.digest_mb_per_s",
        tracer.counter("transfer", "digest_bytes") as f64 / 1e6 / digest_secs,
    );
    out.set(
        "transfer.ingest_s",
        median(&tracer.secs("transfer", "ingest")).ok_or(missing)?,
    );
    Ok((out, journal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("eoml-perfbench-{tag}-{}", std::process::id()))
    }

    fn signatures(batch: &RealBatch, workdir: &Path, passes: usize) -> Vec<Signature> {
        let pipeline = build(batch, workdir, None).unwrap();
        (0..passes)
            .map(|_| {
                let pass = run_pass(batch, &pipeline, false).unwrap();
                verify(batch, &pass, &workdir.join("outbox"), &Tracer::off()).unwrap()
            })
            .collect()
    }

    #[test]
    fn same_seed_reproduces_the_manifest_digests() {
        let dir = tempdir("digests");
        let batch = inputs::mini_dense(5);
        let first = signatures(&batch, &dir.join("a"), 2);
        assert_eq!(first[0], first[1], "passes of one pipeline differ");
        let rebuilt = signatures(&batch, &dir.join("b"), 1);
        assert_eq!(
            first[0], rebuilt[0],
            "a fresh pipeline ships different bytes"
        );
        assert_eq!(first[0].digests.len(), batch.granules.len());
        let other = signatures(&inputs::mini_dense(6), &dir.join("c"), 1);
        assert_ne!(first[0].manifest_id, other[0].manifest_id);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_counts_repeat_across_passes() {
        let dir = tempdir("journal");
        let batch = RealBatch {
            journaled: true,
            ..inputs::mini_dense(5)
        };
        let pipeline = build(&batch, &dir, None).unwrap();
        let counts: Vec<JournalCounts> = (0..2)
            .map(|_| run_pass(&batch, &pipeline, true).unwrap().journal.unwrap())
            .collect();
        assert_eq!(counts[0], counts[1]);
        assert!(counts[0].events > 0 && counts[0].fsyncs > 0);
        assert_eq!(counts[0].recoveries, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_wrong_outbox_fails_the_check() {
        let dir = tempdir("tamper");
        let batch = inputs::mini_dense(5);
        let pipeline = build(&batch, &dir, None).unwrap();
        let pass = run_pass(&batch, &pipeline, false).unwrap();
        let victim = &pass.report.outbox[0];
        let mut bytes = std::fs::read(victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(victim, bytes).unwrap();
        let mut checker = Checker::new(&batch);
        assert!(checker
            .check(Ok(pass), &dir.join("outbox"), &Tracer::off())
            .is_none());
        assert_eq!(checker.outcome.failed, batch.granules.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! Real execution of the five-stage pipeline on this machine.
//!
//! Same orchestration as the virtual campaign, but everything is real: a
//! `download_granule` function registered on a real compute endpoint
//! (worker threads, exactly the paper's remotely-executable Globus Compute
//! function) materializes `.eogr` product files — there is no real LAADS,
//! so "download" synthesizes the archive's contents — the preprocessing
//! kernels run on a thread pool, the stage-3 monitor crawls a real
//! directory, stage 4 executes the Globus-Flows-style inference flow with
//! real RICC inference, and stage 5 "ships" by moving files to an outbox
//! directory (facilities being directories here).
//!
//! [`RealPipeline::run_resumable`] journals per-granule stage completions
//! (download → preprocess → monitor/inference → shipment) to a write-ahead
//! journal, so an on-disk run killed at any point reopens the journal and
//! resumes against the same workdir without redoing journaled-complete
//! work — the resumed run's labeled artifacts are byte-identical to an
//! uninterrupted run's.

use crate::provenance::ProvenanceLog;
use crate::run::{shipment_manifest, JournalGate};
use eoml_compute::endpoint::{ComputeEndpoint, TaskResult};
use eoml_compute::registry::FunctionRegistry;
use eoml_executor::local::LocalExecutor;
use eoml_flows::definition::FlowDefinition;
use eoml_flows::runner::FlowRunner;
use eoml_flows::trigger::DirectoryCrawler;
use eoml_journal::{Journal, JournalError, JournalEvent, Storage};
use eoml_modis::files::{to_mod02, to_mod03, to_mod06};
use eoml_modis::granule::GranuleId;
use eoml_modis::product::ProductKind;
use eoml_modis::synth::{SwathDims, SwathSynthesizer};
use eoml_ncdf::NcFile;
use eoml_obs::{Obs, TraceContext};
use eoml_preprocess::pipeline::preprocess_granule_files;
use eoml_preprocess::tiles::TileCriteria;
use eoml_preprocess::writer::{append_labels, read_tiles_nc};
use eoml_ricc::aicca::AiccaModel;
use eoml_ricc::autoencoder::AeConfig;
use eoml_ricc::tensor::Tensor;
use eoml_transfer::manifest::{content_digest, ShipmentManifest};
use serde_json::json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Journal label guarding real-run journals against cross-driver reuse.
const REAL_RUN_LABEL: &str = "real-run";

/// Why a real pipeline run stopped.
#[derive(Debug)]
pub enum RealRunError {
    /// The write-ahead journal failed (including injected crash points);
    /// reopen the journal over the same storage and run again to resume.
    Journal(JournalError),
    /// A pipeline stage failed (I/O, decode, inference flow, ...).
    Pipeline(String),
}

impl std::fmt::Display for RealRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RealRunError::Journal(e) => write!(f, "real-run journal error: {e}"),
            RealRunError::Pipeline(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for RealRunError {}

impl From<String> for RealRunError {
    fn from(msg: String) -> Self {
        RealRunError::Pipeline(msg)
    }
}

impl From<&str> for RealRunError {
    fn from(msg: &str) -> Self {
        RealRunError::Pipeline(msg.to_string())
    }
}

impl From<JournalError> for RealRunError {
    fn from(e: JournalError) -> Self {
        RealRunError::Journal(e)
    }
}

impl RealRunError {
    /// Whether this is the injected journal kill point (resume by
    /// reopening the journal).
    pub fn is_crash(&self) -> bool {
        matches!(self, RealRunError::Journal(JournalError::Crashed))
    }
}

/// Report of one real pipeline run.
#[derive(Debug, Clone)]
pub struct RealRunReport {
    /// Granules processed.
    pub granules: usize,
    /// Tile files produced by preprocessing.
    pub tile_files: usize,
    /// Total tiles across files.
    pub total_tiles: usize,
    /// Tiles labeled by inference.
    pub labeled_tiles: usize,
    /// Label counts per AICCA class.
    pub label_histogram: Vec<usize>,
    /// Final labeled files in the outbox.
    pub outbox: Vec<PathBuf>,
    /// Wall-clock seconds per stage: synthesize ("download"), preprocess,
    /// monitor+inference, shipment.
    pub stage_secs: [f64; 4],
    /// Shipment manifest over the outbox: *real* content digests of the
    /// shipped bytes (not synthetic), plus the journal digest when run
    /// resumably.
    pub manifest: Option<ShipmentManifest>,
}

impl RealRunReport {
    /// Preprocessing throughput, tiles/s.
    pub fn preprocess_throughput(&self) -> f64 {
        if self.stage_secs[1] <= 0.0 {
            return 0.0;
        }
        self.total_tiles as f64 / self.stage_secs[1]
    }
}

/// The real pipeline: synthesizer + criteria + model + thread pool, rooted
/// at a work directory with `incoming/`, `tiles/` and `outbox/` subdirs.
pub struct RealPipeline {
    workdir: PathBuf,
    seed: u64,
    synth: SwathSynthesizer,
    criteria: TileCriteria,
    model: AiccaModel,
    executor: LocalExecutor,
    obs: Option<Arc<Obs>>,
}

impl RealPipeline {
    /// Build a pipeline. `tile_size` must divide the synthesizer dims and
    /// be a multiple of 4 (autoencoder constraint).
    pub fn new(
        workdir: impl Into<PathBuf>,
        seed: u64,
        dims: SwathDims,
        tile_size: usize,
        workers: usize,
    ) -> std::io::Result<Self> {
        let workdir = workdir.into();
        for sub in ["incoming", "tiles", "outbox"] {
            std::fs::create_dir_all(workdir.join(sub))?;
        }
        let cfg = AeConfig {
            in_ch: 6,
            c1: 8,
            c2: 16,
            latent: 24,
            input: tile_size,
            lr: 1e-3,
            lambda: 0.1,
        };
        Ok(Self {
            workdir,
            seed,
            synth: SwathSynthesizer::new(seed, dims),
            criteria: TileCriteria {
                tile_size,
                ..TileCriteria::default()
            },
            model: AiccaModel::pretrained(cfg, seed),
            executor: LocalExecutor::new(workers),
            obs: None,
        })
    }

    /// Attach an observability hub: each stage gets a wall-clock span, the
    /// endpoint/executor/flow-runner instrumentation is enabled, and the
    /// headline counters (granules, tile files, labeled tiles) are mirrored
    /// as metrics.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        let workers = self.executor.workers();
        self.executor = LocalExecutor::new(workers).with_obs(Arc::clone(&obs));
        self.obs = Some(obs);
        self
    }

    /// Override the tile-selection criteria (thresholds only; the tile
    /// size stays bound to the model input).
    pub fn with_thresholds(mut self, min_ocean: f64, min_cloud: f64) -> Self {
        self.criteria.min_ocean_fraction = min_ocean;
        self.criteria.min_cloud_fraction = min_cloud;
        self
    }

    /// The pipeline's work directory.
    pub fn workdir(&self) -> &Path {
        &self.workdir
    }

    /// The AICCA model used for inference.
    pub fn model(&self) -> &AiccaModel {
        &self.model
    }

    /// Run the pipeline over `granules`.
    pub fn run(&self, granules: &[GranuleId]) -> Result<RealRunReport, String> {
        self.run_inner(granules, JournalGate::default())
            .map_err(|e| e.to_string())
    }

    /// Run the pipeline against a write-ahead `journal`, resuming any work
    /// the journal already records as complete against this workdir.
    ///
    /// Each stage journals per-granule completion events *after* the
    /// corresponding artifact is durably on disk: `FileDownloaded` once a
    /// granule's three product files exist, `TileFileWritten` once its
    /// tile NetCDF (or night-granule scan record) is written,
    /// `MonitorTriggered`/`LabelsAppended` around the inference flow, and
    /// `ShipmentFinished` when the outbox is complete. On reopen,
    /// journaled-complete granule stages are skipped (their results are
    /// folded into the report from the journal and the on-disk artifacts),
    /// so a resumed run produces byte-identical labeled artifacts and an
    /// identical report without re-executing finished work.
    ///
    /// Returns [`RealRunError::Journal`]\([`JournalError::Crashed`]\) when
    /// the journal's injected kill point fires (see
    /// [`Journal::crash_after`]); reopening the journal over the same
    /// storage and calling this again resumes from the durable prefix. A
    /// journal another seed or driver wrote is refused with
    /// [`JournalError::Foreign`].
    pub fn run_resumable<S: Storage>(
        &self,
        granules: &[GranuleId],
        journal: &mut Journal<S>,
    ) -> Result<RealRunReport, RealRunError> {
        let gate = JournalGate::open(journal, self.seed, REAL_RUN_LABEL)?;
        self.run_inner(granules, gate)
    }

    /// One wall-clock stage: `body` runs between the journal's
    /// `StageStarted`/`StageFinished` for `stage`, inside the obs span
    /// `span`, which gets `body`'s `(key, value)` attribute. Returns
    /// `body`'s output and the stage's seconds.
    fn stage<'j, T>(
        &self,
        journal: &mut JournalGate<'j>,
        stage: &str,
        span: (&str, &str),
        body: impl FnOnce(&mut JournalGate<'j>) -> Result<(T, (&'static str, usize)), RealRunError>,
    ) -> Result<(T, f64), RealRunError> {
        let t0 = Instant::now();
        let span = self.obs.as_ref().map(|o| o.span(span.0, span.1));
        journal.stage_started(stage)?;
        let (out, (key, value)) = body(journal)?;
        journal.stage_finished(stage)?;
        if let Some(mut span) = span {
            span.attr(key, value);
        }
        Ok((out, t0.elapsed().as_secs_f64()))
    }

    fn run_inner(
        &self,
        granules: &[GranuleId],
        mut journal: JournalGate<'_>,
    ) -> Result<RealRunReport, RealRunError> {
        let incoming = self.workdir.join("incoming");
        let tiles_dir = self.workdir.join("tiles");
        let outbox = self.workdir.join("outbox");
        let resume = journal.resume().clone();
        let run_t0 = Instant::now();

        // Stage 1 (substituted download): the paper's remotely executable
        // download function, registered on a real compute endpoint. Each
        // invocation materializes one granule's three product files.
        // Granules whose download is journaled AND whose product files are
        // still on disk are skipped.
        let (granule_paths, synth_secs) = self.stage(
            &mut journal,
            "download",
            ("download", "synthesize"),
            |journal| {
                let granule_paths: Vec<(GranuleId, [PathBuf; 3])> = granules
                    .iter()
                    .map(|&g| (g, ProductKind::all().map(|p| incoming.join(g.file_name(p)))))
                    .collect();
                let to_download: Vec<GranuleId> = granule_paths
                    .iter()
                    .filter(|(g, paths)| {
                        !(resume.is_downloaded(&g.to_string()) && paths.iter().all(|p| p.exists()))
                    })
                    .map(|&(g, _)| g)
                    .collect();
                if !to_download.is_empty() {
                    self.download(&incoming, &to_download, &resume, journal)?;
                }
                Ok((granule_paths, ("granules", granules.len())))
            },
        )?;

        // Stage 2: parallel preprocessing. A granule whose tile file (or
        // night-granule scan record) is journaled and whose artifact is
        // accounted for — still in tiles/, already labeled, or shipped —
        // is folded in from the journal without re-running the kernels.
        let ((total_tiles, mut tile_file_names), preprocess_secs) = self.stage(
            &mut journal,
            "preprocess",
            ("preprocess", "map"),
            |journal| {
                let mut total_tiles = 0usize;
                let mut tile_file_names: BTreeSet<String> = BTreeSet::new();
                let mut to_preprocess: Vec<(GranuleId, [PathBuf; 3])> = Vec::new();
                for (g, paths) in &granule_paths {
                    let tiles_key = format!("tiles-{g}.nc");
                    let scan_key = format!("scan-{g}");
                    if let Some(&tiles) = resume.tile_files.get(&tiles_key) {
                        let artifact_accounted = tiles_dir.join(&tiles_key).exists()
                            || resume.is_labeled(&tiles_key)
                            || outbox.join(&tiles_key).exists();
                        if artifact_accounted {
                            total_tiles += tiles as usize;
                            tile_file_names.insert(tiles_key);
                            continue;
                        }
                        // Artifact lost under a journaled completion (workdir
                        // tampering): fall through and regenerate it.
                    } else if resume.tile_files.contains_key(&scan_key) {
                        continue;
                    }
                    to_preprocess.push((*g, paths.clone()));
                }
                // Attribute the stage's allocations (tile buffers, outcome
                // collection) when the counting allocator is installed.
                let mem_scope = self
                    .obs
                    .as_ref()
                    .map(|o| eoml_obs::ResourceGuard::enter(Arc::clone(o), "preprocess", "map"));
                let outcomes = self.executor.map(to_preprocess, |(g, [p02, p03, p06])| {
                    preprocess_granule_files(&p02, &p03, &p06, &tiles_dir, &self.criteria)
                        .map(|out| (g, out))
                        .map_err(|e| e.to_string())
                });
                for o in outcomes {
                    let (granule, out) = o.map_err(|e| format!("preprocess failed: {e}"))?;
                    total_tiles += out.tiles.len();
                    let key = match &out.output {
                        Some(path) => {
                            let name = file_name(path)?;
                            tile_file_names.insert(name.clone());
                            name
                        }
                        None => format!("scan-{granule}"),
                    };
                    if !resume.has_tile_file(&key) {
                        journal.record(JournalEvent::TileFileWritten {
                            file: key,
                            tiles: out.tiles.len() as u64,
                        })?;
                    }
                }
                drop(mem_scope);
                Ok(((total_tiles, tile_file_names), ("tiles", total_tiles)))
            },
        )?;

        // Stages 3+4: monitor the tiles directory and run the inference
        // flow per discovered file.
        let ((tile_files, histogram, labeled_tiles), infer_secs) =
            self.stage(&mut journal, "inference", ("monitor", "crawl"), |journal| {
                let mut histogram = vec![0usize; self.model.num_classes()];
                let mut labeled_tiles = 0usize;

                // Fold journaled-complete inference back into the tallies by
                // reading the shipped artifacts (the labels themselves are
                // not in the journal; the files are the source of truth).
                for (file, (labels, _bytes)) in &resume.labeled {
                    tile_file_names.insert(file.clone());
                    match std::fs::read(outbox.join(file)) {
                        Ok(bytes) => {
                            let labels = stored_labels(&bytes)?;
                            labeled_tiles +=
                                tally(&mut histogram, labels.into_iter().map(i64::from));
                        }
                        // Artifact missing (workdir tampering): trust the
                        // journal for the count; the class breakdown is
                        // unrecoverable.
                        Err(_) => labeled_tiles += *labels as usize,
                    }
                }

                // Heal the journal/filesystem gap: a file that reached the
                // outbox whose LabelsAppended append crashed is complete on
                // disk but not in the journal — journal it now instead of
                // losing or redoing it.
                if journal.is_journaled() {
                    for path in list_nc(&outbox)? {
                        let name = file_name(&path)?;
                        if resume.is_labeled(&name) {
                            continue;
                        }
                        tile_file_names.insert(name.clone());
                        let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
                        let file_labels = stored_labels(&bytes)?;
                        labeled_tiles +=
                            tally(&mut histogram, file_labels.iter().map(|&l| i64::from(l)));
                        if !resume.monitor_saw(&name) {
                            journal
                                .record(JournalEvent::MonitorTriggered { file: name.clone() })?;
                        }
                        journal.record(JournalEvent::LabelsAppended {
                            file: name,
                            labels: file_labels.len() as u64,
                            bytes: bytes.len() as u64,
                        })?;
                    }
                }

                let mut infer = |_: &str,
                                 params: &serde_json::Value,
                                 _: &serde_json::Value|
                 -> Result<serde_json::Value, String> {
                    let file = params["file"].as_str().ok_or("missing file param")?;
                    let path = tiles_dir.join(file);
                    let nc = NcFile::decode(&std::fs::read(&path).map_err(|e| e.to_string())?)
                        .map_err(|e| e.to_string())?;
                    let (tiles, existing) = read_tiles_nc(&nc).map_err(|e| e.to_string())?;
                    // A crash between label-append and shipment can leave a
                    // file already labeled in the tiles directory; reuse
                    // those labels so the rerun is idempotent.
                    if let Some(labels) = existing {
                        return Ok(json!({ "labels": labels }));
                    }
                    let tensors: Vec<Tensor> = tiles
                        .iter()
                        .map(|t| Tensor::from_data(t.bands.len(), t.size, t.size, t.data.clone()))
                        .collect();
                    let labels = self.model.predict_batch(&tensors);
                    Ok(json!({ "labels": labels }))
                };
                let mut append = |_: &str,
                                  params: &serde_json::Value,
                                  _: &serde_json::Value|
                 -> Result<serde_json::Value, String> {
                    let file = params["file"].as_str().ok_or("missing file param")?;
                    let labels: Vec<i32> = params["labels"]["labels"]
                        .as_array()
                        .ok_or("missing labels")?
                        .iter()
                        .map(|v| v.as_i64().unwrap_or(-1) as i32)
                        .collect();
                    let path = tiles_dir.join(file);
                    let mut nc = NcFile::decode(&std::fs::read(&path).map_err(|e| e.to_string())?)
                        .map_err(|e| e.to_string())?;
                    // Idempotent on rerun: labels already appended by a run
                    // that died before shipping this file.
                    if nc.var_by_name("aicca_label").is_some() {
                        return Ok(json!({ "appended": 0 }));
                    }
                    append_labels(&mut nc, &labels).map_err(|e| e.to_string())?;
                    std::fs::write(&path, nc.encode().map_err(|e| e.to_string())?)
                        .map_err(|e| e.to_string())?;
                    Ok(json!({ "appended": labels.len() }))
                };
                let mut move_out = |_: &str,
                                    params: &serde_json::Value,
                                    _: &serde_json::Value|
                 -> Result<serde_json::Value, String> {
                    let file = params["file"].as_str().ok_or("missing file param")?;
                    std::fs::rename(tiles_dir.join(file), outbox.join(file))
                        .map_err(|e| e.to_string())?;
                    Ok(json!({ "moved": file }))
                };

                let mut runner = FlowRunner::new();
                if let Some(obs) = &self.obs {
                    runner.obs = Some(Arc::clone(obs));
                }
                runner.register("inference", &mut infer);
                runner.register("append_labels", &mut append);
                runner.register("move_to_outbox", &mut move_out);
                let flow = FlowDefinition::inference_flow();
                let mut crawler = DirectoryCrawler::new(&tiles_dir, ".nc");

                // Drain the crawler (preprocessing already finished, so one
                // crawl sees everything; loop anyway to mirror the monitor
                // structure).
                loop {
                    let fresh = crawler.crawl().map_err(|e| e.to_string())?;
                    if fresh.is_empty() {
                        break;
                    }
                    for path in fresh {
                        let name = file_name(&path)?;
                        tile_file_names.insert(name.clone());
                        if !resume.monitor_saw(&name) {
                            journal
                                .record(JournalEvent::MonitorTriggered { file: name.clone() })?;
                        }
                        let trace = crate::campaign::granule_trace_id(&name).map(TraceContext::new);
                        let mut infer_span = self.obs.as_ref().map(|o| o.span("inference", "flow"));
                        if let (Some(span), Some(trace)) = (infer_span.as_mut(), trace.as_ref()) {
                            span.set_trace(trace);
                        }
                        let run = match trace.as_ref() {
                            Some(trace) => runner.run_traced(&flow, json!({ "file": name }), trace),
                            None => runner.run(&flow, json!({ "file": name })),
                        };
                        if let Some(mut span) = infer_span {
                            span.attr("file", &name);
                        }
                        if let eoml_flows::runner::RunStatus::Failed(e) = &run.status {
                            return Err(format!("inference flow failed for {name}: {e}").into());
                        }
                        // Tally labels from the flow context.
                        let file_labels = tally(
                            &mut histogram,
                            run.context["labels"]["labels"]
                                .as_array()
                                .into_iter()
                                .flatten()
                                .map(|l| l.as_i64().unwrap_or(-1)),
                        );
                        labeled_tiles += file_labels;
                        if !resume.is_labeled(&name) {
                            let shipped_bytes = std::fs::metadata(outbox.join(&name))
                                .map(|m| m.len())
                                .unwrap_or(0);
                            journal.record(JournalEvent::LabelsAppended {
                                file: name,
                                labels: file_labels as u64,
                                bytes: shipped_bytes,
                            })?;
                        }
                    }
                }
                let tile_files = tile_file_names
                    .iter()
                    .filter(|n| n.ends_with(".nc"))
                    .count();
                Ok((
                    (tile_files, histogram, labeled_tiles),
                    ("tile_files", tile_files),
                ))
            })?;

        // Stage 5: the outbox *is* the destination facility here; collect
        // the shipped files and hash their real bytes — what a destination
        // facility would verify against after the WAN hop.
        let ((shipped, artifacts), ship_secs) = self.stage(
            &mut journal,
            "shipment",
            ("shipment", "collect"),
            |journal| {
                let shipped = list_nc(&outbox)?;
                if resume.shipped.is_none() {
                    let shipped_bytes: u64 = shipped
                        .iter()
                        .filter_map(|p| std::fs::metadata(p).ok())
                        .map(|m| m.len())
                        .sum();
                    journal.record(JournalEvent::ShipmentFinished {
                        files: shipped.len() as u64,
                        bytes: shipped_bytes,
                    })?;
                }
                let mut artifacts = Vec::with_capacity(shipped.len());
                for path in &shipped {
                    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
                    artifacts.push((file_name(path)?, bytes.len() as u64, content_digest(&bytes)));
                }
                let files = shipped.len();
                Ok(((shipped, artifacts), ("files", files)))
            },
        )?;
        let manifest = shipment_manifest(
            artifacts,
            &ProvenanceLog::new(),
            journal.digest(),
            run_t0.elapsed().as_secs_f64(),
        );

        if let Some(obs) = &self.obs {
            obs.counter_add("granules", "download", granules.len() as u64);
            obs.counter_add("tile_files", "preprocess", tile_files as u64);
            obs.counter_add("labeled_tiles", "inference", labeled_tiles as u64);
            obs.counter_add("files_shipped", "shipment", shipped.len() as u64);
        }

        Ok(RealRunReport {
            granules: granules.len(),
            tile_files,
            total_tiles,
            labeled_tiles,
            label_histogram: histogram,
            outbox: shipped,
            stage_secs: [synth_secs, preprocess_secs, infer_secs, ship_secs],
            manifest: Some(manifest),
        })
    }

    /// Materialise `granules`' product files in `incoming` through the
    /// `download_granule` function on a compute endpoint, journaling each
    /// granule's `FileDownloaded` (keyed by its display id) on success.
    fn download(
        &self,
        incoming: &Path,
        granules: &[GranuleId],
        resume: &eoml_journal::CampaignState,
        journal: &mut JournalGate<'_>,
    ) -> Result<(), RealRunError> {
        let registry = Arc::new(FunctionRegistry::new());
        let synth = self.synth.clone();
        let dir = incoming.to_path_buf();
        registry.register("download_granule", move |args| {
            let g: GranuleId = args
                .as_str()
                .and_then(|id| id.parse().ok())
                .ok_or("bad granule args")?;
            let swath = synth.synthesize(g);
            let paths = ProductKind::all().map(|p| dir.join(g.file_name(p)));
            // One product in flight at a time: each encode's temporary
            // product is dropped before the next one is built.
            let b02 = to_mod02(&swath).encode();
            let b03 = to_mod03(&swath).encode();
            let b06 = to_mod06(&swath).encode();
            let bytes = (b02.len() + b03.len() + b06.len()) as u64;
            for (path, data) in paths.iter().zip([b02, b03, b06]) {
                std::fs::write(path, data).map_err(|e| e.to_string())?;
            }
            let [p02, p03, p06] = paths.map(|p| p.to_string_lossy().into_owned());
            Ok(json!({ "mod02": p02, "mod03": p03, "mod06": p06, "bytes": bytes }))
        });
        let endpoint = ComputeEndpoint::start_observed(
            "laads-downloader",
            registry,
            self.executor.workers(),
            self.obs.clone(),
        );
        let handles: Vec<_> = granules
            .iter()
            .map(|g| {
                let trace = TraceContext::new(g.to_string());
                endpoint
                    .submit_by_name_traced("download_granule", json!(g.to_string()), Some(&trace))
                    .expect("registered function")
            })
            .collect();
        for (g, h) in granules.iter().zip(handles) {
            match h.wait() {
                TaskResult::Success(v) => {
                    let key = g.to_string();
                    if !resume.is_downloaded(&key) {
                        journal.record(JournalEvent::FileDownloaded {
                            file: key,
                            bytes: v["bytes"].as_u64().unwrap_or(0),
                        })?;
                    }
                }
                TaskResult::Failed(e) => return Err(format!("download failed: {e}").into()),
            }
        }
        endpoint.shutdown();
        Ok(())
    }
}

/// Count the valid AICCA labels among `labels` into `histogram`; returns
/// how many were valid.
fn tally(histogram: &mut [usize], labels: impl IntoIterator<Item = i64>) -> usize {
    let mut valid = 0;
    for l in labels {
        if let Some(slot) = usize::try_from(l).ok().and_then(|l| histogram.get_mut(l)) {
            *slot += 1;
            valid += 1;
        }
    }
    valid
}

/// The labels stored in an encoded tile NetCDF (empty when unlabeled).
fn stored_labels(bytes: &[u8]) -> Result<Vec<i32>, String> {
    let nc = NcFile::decode(bytes).map_err(|e| e.to_string())?;
    let (_, labels) = read_tiles_nc(&nc).map_err(|e| e.to_string())?;
    Ok(labels.unwrap_or_default())
}

/// The `.nc` files in `dir`, sorted.
fn list_nc(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "nc"))
        .collect();
    files.sort();
    Ok(files)
}

/// `path`'s file name as UTF-8.
fn file_name(path: &Path) -> Result<String, &'static str> {
    path.file_name()
        .and_then(|n| n.to_str())
        .map(str::to_string)
        .ok_or("bad file name")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eoml_journal::MemStorage;
    use eoml_modis::product::Platform;
    use eoml_util::timebase::CivilDate;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eoml-realrun-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn day_granules(n: usize) -> Vec<GranuleId> {
        let sy = SwathSynthesizer::new(2022, SwathDims::small());
        let date = CivilDate::new(2022, 1, 1).unwrap();
        (0..288)
            .map(|slot| GranuleId::new(Platform::Terra, date, slot))
            .filter(|&g| sy.synthesize(g).day)
            .take(n)
            .collect()
    }

    #[test]
    fn end_to_end_real_pipeline() {
        let dir = tempdir("e2e");
        let pipeline = RealPipeline::new(&dir, 2022, SwathDims::small(), 32, 2)
            .unwrap()
            .with_thresholds(0.0, 0.0);
        let granules = day_granules(2);
        assert_eq!(granules.len(), 2);
        let report = pipeline.run(&granules).unwrap();
        assert_eq!(report.granules, 2);
        assert_eq!(report.tile_files, 2, "both day granules produce files");
        // 256/32 = 8 → 64 candidate windows per granule, all accepted.
        assert_eq!(report.total_tiles, 2 * 64);
        assert_eq!(report.labeled_tiles, report.total_tiles);
        assert_eq!(report.outbox.len(), 2);
        assert_eq!(
            report.label_histogram.iter().sum::<usize>(),
            report.labeled_tiles
        );
        // Labeled files in the outbox contain the aicca_label variable.
        let nc = NcFile::decode(&std::fs::read(&report.outbox[0]).unwrap()).unwrap();
        assert!(nc.var_by_name("aicca_label").is_some());
        let (tiles, labels) = read_tiles_nc(&nc).unwrap();
        assert_eq!(labels.unwrap().len(), tiles.len());
        // The tiles directory is empty (everything shipped).
        let left = std::fs::read_dir(dir.join("tiles")).unwrap().count();
        assert_eq!(left, 0);
        // The manifest hashes the real outbox bytes, and a faithful
        // destination-side ingest verifies cleanly against it.
        let manifest = report.manifest.as_ref().expect("manifest");
        assert_eq!(manifest.len(), 2);
        assert!(manifest.journal.is_none(), "plain run has no journal");
        for a in &manifest.artifacts {
            let bytes = std::fs::read(dir.join("outbox").join(&a.name)).unwrap();
            assert_eq!(a.bytes, bytes.len() as u64);
            assert_eq!(a.digest, content_digest(&bytes));
            assert!(a.trace_id.is_some(), "{} untraced", a.name);
        }
        let received: Vec<_> = manifest
            .artifacts
            .iter()
            .map(eoml_transfer::ReceivedArtifact::faithful)
            .collect();
        let ingest =
            eoml_transfer::Ingestor::new("frontier-orion").ingest(manifest, &received, 0.0);
        assert!(ingest.ok(), "clean ingest failed: {:?}", ingest.errors);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strict_criteria_select_fewer_tiles() {
        let dir = tempdir("strict");
        let pipeline = RealPipeline::new(&dir, 2022, SwathDims::small(), 32, 2).unwrap();
        // Default criteria: ocean-only + ≥30 % cloud.
        let granules = day_granules(3);
        let report = pipeline.run(&granules).unwrap();
        assert!(
            report.total_tiles < 3 * 64,
            "criteria must reject some windows"
        );
        assert_eq!(report.labeled_tiles, report.total_tiles);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn labels_spread_across_classes() {
        let dir = tempdir("spread");
        let pipeline = RealPipeline::new(&dir, 2022, SwathDims::small(), 32, 2)
            .unwrap()
            .with_thresholds(0.0, 0.0);
        let report = pipeline.run(&day_granules(3)).unwrap();
        let used = report.label_histogram.iter().filter(|&&c| c > 0).count();
        assert!(used >= 3, "expected ≥3 distinct classes, got {used}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn observed_real_run_records_wall_clock_stage_spans() {
        let dir = tempdir("obs");
        let obs = Obs::shared();
        let pipeline = RealPipeline::new(&dir, 2022, SwathDims::small(), 32, 2)
            .unwrap()
            .with_thresholds(0.0, 0.0)
            .with_obs(Arc::clone(&obs));
        let report = pipeline.run(&day_granules(2)).unwrap();
        let spans = obs.spans();
        for (stage, name) in [
            ("download", "synthesize"),
            ("preprocess", "map"),
            ("monitor", "crawl"),
            ("inference", "flow"),
            ("shipment", "collect"),
        ] {
            let span = spans
                .iter()
                .find(|s| s.stage == stage && s.name == name)
                .unwrap_or_else(|| panic!("no {stage}/{name} span"));
            assert!(span.sim_start.is_none(), "real run spans are wall-clock");
            assert!(span.wall_end_ns >= span.wall_start_ns);
        }
        // Inference flow spans nest under the monitor crawl span.
        let crawl = spans
            .iter()
            .find(|s| s.stage == "monitor" && s.name == "crawl")
            .unwrap();
        let flow = spans
            .iter()
            .find(|s| s.stage == "inference" && s.name == "flow")
            .unwrap();
        assert_eq!(flow.parent, Some(crawl.id));
        // Per-granule traces: the downloads (compute tasks), the inference
        // flow wrapper, and every flow hop carry granule trace ids.
        let traced_compute = spans
            .iter()
            .filter(|s| s.stage == "compute" && s.trace_id.is_some())
            .count();
        assert_eq!(traced_compute, 2, "one traced compute span per granule");
        assert!(flow.trace_id.is_some(), "inference flow span untraced");
        assert!(
            spans
                .iter()
                .filter(|s| s.stage == "flow")
                .all(|s| s.trace_id.is_some()),
            "flow hop missing its granule trace"
        );
        let m = obs.metrics();
        assert_eq!(m.counter_value("granules", "download"), Some(2));
        assert_eq!(
            m.counter_value("labeled_tiles", "inference"),
            Some(report.labeled_tiles as u64)
        );
        // The endpoint, executor, and flow runner instrumentation all fired.
        assert_eq!(m.counter_value("tasks_submitted", "compute"), Some(2));
        assert!(m.counter_value("tasks", "executor").unwrap_or(0) >= 2);
        assert!(m.counter_value("actions", "flow").unwrap_or(0) >= 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn night_only_run_produces_nothing() {
        let dir = tempdir("night");
        let pipeline = RealPipeline::new(&dir, 2022, SwathDims::small(), 32, 1)
            .unwrap()
            .with_thresholds(0.0, 0.0);
        let sy = SwathSynthesizer::new(2022, SwathDims::small());
        let date = CivilDate::new(2022, 1, 1).unwrap();
        let night: Vec<GranuleId> = (0..288)
            .map(|slot| GranuleId::new(Platform::Terra, date, slot))
            .filter(|&g| !sy.synthesize(g).day)
            .take(2)
            .collect();
        let report = pipeline.run(&night).unwrap();
        assert_eq!(report.tile_files, 0);
        assert_eq!(report.labeled_tiles, 0);
        assert!(report.outbox.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resumable_run_without_crash_matches_plain_run_and_is_replay_safe() {
        let dir_a = tempdir("resumable-a");
        let dir_b = tempdir("resumable-b");
        let granules = day_granules(2);

        let plain = RealPipeline::new(&dir_a, 2022, SwathDims::small(), 32, 2)
            .unwrap()
            .with_thresholds(0.0, 0.0)
            .run(&granules)
            .unwrap();

        let pipeline = RealPipeline::new(&dir_b, 2022, SwathDims::small(), 32, 2)
            .unwrap()
            .with_thresholds(0.0, 0.0);
        let store = MemStorage::new();
        let (mut journal, _) = Journal::open(store.clone()).unwrap();
        let journaled = pipeline.run_resumable(&granules, &mut journal).unwrap();
        assert_eq!(journaled.granules, plain.granules);
        assert_eq!(journaled.total_tiles, plain.total_tiles);
        assert_eq!(journaled.labeled_tiles, plain.labeled_tiles);
        assert_eq!(journaled.label_histogram, plain.label_histogram);
        assert_eq!(journaled.outbox.len(), plain.outbox.len());
        let manifest = journaled.manifest.as_ref().expect("manifest");
        assert!(manifest.journal.is_some(), "journaled run records a digest");

        // Replaying the finished journal re-executes nothing and appends
        // no new completion events.
        let events_after = journal.len();
        drop(journal);
        let (mut journal, rep) = Journal::open(store).unwrap();
        assert_eq!(rep.events, events_after);
        let replay = pipeline.run_resumable(&granules, &mut journal).unwrap();
        assert_eq!(replay.total_tiles, plain.total_tiles);
        assert_eq!(replay.labeled_tiles, plain.labeled_tiles);
        assert_eq!(replay.label_histogram, plain.label_histogram);
        let completions = journal
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    JournalEvent::FileDownloaded { .. }
                        | JournalEvent::TileFileWritten { .. }
                        | JournalEvent::LabelsAppended { .. }
                )
            })
            .count();
        assert_eq!(completions, 2 + 2 + 2, "replay must not re-journal work");
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn mismatched_seed_or_label_is_rejected() {
        let dir = tempdir("guard");
        let granules = day_granules(1);
        let store = MemStorage::new();
        {
            let pipeline = RealPipeline::new(&dir, 2022, SwathDims::small(), 32, 1)
                .unwrap()
                .with_thresholds(0.0, 0.0);
            let (mut journal, _) = Journal::open(store.clone()).unwrap();
            pipeline.run_resumable(&granules, &mut journal).unwrap();
        }
        // Same journal, different world seed.
        let other = RealPipeline::new(&dir, 2023, SwathDims::small(), 32, 1).unwrap();
        let (mut journal, _) = Journal::open(store).unwrap();
        assert!(other.run_resumable(&granules, &mut journal).is_err());

        // A batch-campaign journal is rejected by label.
        let store = MemStorage::new();
        let (mut j, _) = Journal::open(store.clone()).unwrap();
        j.append(JournalEvent::CampaignStarted {
            seed: 2022,
            label: "batch-campaign".into(),
        })
        .unwrap();
        drop(j);
        let pipeline = RealPipeline::new(&dir, 2022, SwathDims::small(), 32, 1).unwrap();
        let (mut journal, _) = Journal::open(store).unwrap();
        assert!(pipeline.run_resumable(&granules, &mut journal).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

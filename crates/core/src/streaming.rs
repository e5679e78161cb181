//! Streaming campaigns — the paper's §V goal of supporting "inferring with
//! batch as well as streaming data".
//!
//! In batch mode ([`crate::campaign`]) stage 2 waits for every download
//! (the paper's guard against partially read files). In *streaming* mode
//! granules become available at the archive as the satellite acquires
//! them; download workers poll the archive, each granule is preprocessed
//! the moment its three product files have all arrived, inference triggers
//! per finished tile file, and every labeled file ships individually. All
//! five stages run concurrently as a pipeline — downloads of granule *k*
//! overlap inference on granule *k − n*.
//!
//! [`run_streaming_campaign_resumable`] runs the same pipeline against a
//! write-ahead journal: per-product downloads, tile files, monitor triggers
//! and label/ship completions are journaled as they happen, and a restart
//! resumes from the durable prefix without re-executing completed work. In
//! particular, monitor triggers are deduplicated across restarts — a tile
//! file whose label round-trip is journaled never re-enters the inference
//! queue.

use crate::campaign::{
    granule_tiles, granule_trace_id, preprocess_key, CampaignParams, StageReport,
};
use crate::run::{shipment_manifest, JournalGate, Workers};
use crate::world::World;
use eoml_cluster::exec::submit_task;
use eoml_cluster::slurm::request_block;
use eoml_journal::{Journal, JournalError, JournalEvent, Storage};
use eoml_modis::catalog::Catalog;
use eoml_modis::granule::GranuleId;
use eoml_modis::product::ProductKind;
use eoml_obs::TraceContext;
use eoml_simtime::{SimTime, Simulation};
use eoml_transfer::flownet::start_flow;
use eoml_transfer::manifest::{synthetic_digest, ShipmentManifest};
use eoml_util::units::ByteSize;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// Journal label of streaming campaigns.
const STREAMING_LABEL: &str = "streaming-campaign";

/// Why a streaming campaign could not run (or finish).
///
/// Separating pilot-error (`UnsupportedDays`) from journal failures lets
/// multi-day callers recover — pick a supported window and retry — instead
/// of panicking, which is the first step toward the ROADMAP multi-day
/// scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamingError {
    /// The streaming scheduler currently covers exactly one acquisition
    /// day; the caller asked for `days`.
    UnsupportedDays {
        /// The requested day count.
        days: usize,
    },
    /// The write-ahead journal failed (including injected crash points).
    Journal(JournalError),
}

impl std::fmt::Display for StreamingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamingError::UnsupportedDays { days } => write!(
                f,
                "streaming campaigns cover exactly one acquisition day (requested {days}); \
                 use scheduler::run_streaming_days_resumable to span a multi-day window"
            ),
            StreamingError::Journal(e) => write!(f, "streaming journal error: {e}"),
        }
    }
}

impl std::error::Error for StreamingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamingError::Journal(e) => Some(e),
            StreamingError::UnsupportedDays { .. } => None,
        }
    }
}

impl From<JournalError> for StreamingError {
    fn from(e: JournalError) -> StreamingError {
        StreamingError::Journal(e)
    }
}

/// Streaming-specific knobs on top of [`CampaignParams`].
#[derive(Debug, Clone)]
pub struct StreamingParams {
    /// The shared campaign parameters (resources, platform, dates…).
    pub base: CampaignParams,
    /// Virtual seconds between archive polls.
    pub poll_period_s: f64,
    /// Delay from acquisition to archive availability (LAADS production
    /// latency), virtual seconds.
    pub availability_lag_s: f64,
    /// Acquisition-timeline compression: a 5-minute granule slot becomes
    /// `300 / compression` virtual seconds. 1.0 = real time.
    pub compression: f64,
}

impl StreamingParams {
    /// Demo defaults: 20× compressed day, 60 s production lag, 10 s polls.
    pub fn demo() -> Self {
        Self {
            base: CampaignParams::paper_demo(),
            poll_period_s: 10.0,
            availability_lag_s: 60.0,
            compression: 20.0,
        }
    }

    fn available_at(&self, granule: GranuleId) -> SimTime {
        let acq = granule.slot as f64 * 300.0 / self.compression;
        SimTime::from_secs_f64(acq + self.availability_lag_s)
    }
}

/// Result of a streaming campaign.
#[derive(Debug, Clone)]
pub struct StreamingReport {
    /// Granules fully downloaded (all three products).
    pub granules_downloaded: usize,
    /// Granules preprocessed.
    pub granules_preprocessed: usize,
    /// Tile files produced and labeled.
    pub labeled_files: usize,
    /// Files shipped.
    pub shipped_files: usize,
    /// Bytes downloaded.
    pub downloaded: ByteSize,
    /// Bytes shipped.
    pub shipped: ByteSize,
    /// End-to-end makespan, virtual seconds.
    pub makespan_s: f64,
    /// Stage summaries (download/preprocess/shipment windows).
    pub stages: Vec<StageReport>,
    /// Telemetry (activity shows the pipeline overlap).
    pub telemetry: crate::telemetry::Telemetry,
    /// The shipment manifest covering every shipped file — built once the
    /// pipeline drains, including files replayed from the journal.
    pub manifest: Option<ShipmentManifest>,
}

struct StState {
    params: StreamingParams,
    // archive schedule
    pending_granules: VecDeque<GranuleId>, // not yet visible
    download_queue: VecDeque<(GranuleId, ProductKind, String, ByteSize)>,
    download: Workers,
    parts_arrived: HashMap<GranuleId, usize>,
    granules_downloaded: usize,
    downloaded: ByteSize,
    first_download: Option<SimTime>,
    last_download: SimTime,
    // preprocess
    block_nodes: Vec<usize>,
    preprocess_queue: VecDeque<(GranuleId, f64)>,
    preprocess: Workers,
    granules_preprocessed: usize,
    first_preprocess: Option<SimTime>,
    last_preprocess: SimTime,
    // inference
    inference_queue: VecDeque<(String, f64)>,
    inference: Workers,
    // shipment
    shipping: usize,
    /// Every shipped (and so labeled) `(file, bytes)` pair — the shipment
    /// totals and the manifest input; seeded with journal-replayed
    /// shipments so a resumed run still covers the whole campaign.
    ship_log: Vec<(String, ByteSize)>,
    last_ship: SimTime,
    manifest: Option<ShipmentManifest>,
    journal: JournalGate<'static>,
}

impl StState {
    fn shipped(&self) -> ByteSize {
        self.ship_log.iter().map(|&(_, size)| size).sum()
    }
}

type S = Rc<RefCell<StState>>;

/// Whether a journal append has failed: the pipeline stops.
fn halted(st: &S) -> bool {
    st.borrow().journal.is_halted()
}

/// Run one journal-gate call (an append, or a stage start/finish);
/// `false` once the journal refused an append (crash point reached) — that
/// event, and everything after it, is not durable.
fn journal_ok(
    st: &S,
    op: impl FnOnce(&mut JournalGate<'static>) -> Result<(), JournalError>,
) -> bool {
    op(&mut st.borrow_mut().journal).is_ok()
}

/// Run a streaming campaign. The archive releases granules on the
/// (compressed) acquisition timeline; every stage runs concurrently.
///
/// Panics on unsupported parameters (multi-day windows); callers that
/// want a recoverable error use [`try_run_streaming_campaign`].
pub fn run_streaming_campaign(params: StreamingParams) -> StreamingReport {
    try_run_streaming_campaign(params).expect("streaming campaign failed")
}

/// [`run_streaming_campaign`] with a typed error instead of a panic:
/// a multi-day window returns [`StreamingError::UnsupportedDays`].
pub fn try_run_streaming_campaign(
    params: StreamingParams,
) -> Result<StreamingReport, StreamingError> {
    run_streaming_inner(params, JournalGate::default())
}

/// Run a streaming campaign against a write-ahead `journal`, resuming any
/// work the journal already records as complete. A granule whose label/ship
/// round-trip is journaled is replayed into the totals without touching the
/// archive, the cluster, or the WAN; partially complete granules restart
/// from their last durable step (missing product files re-download, tile
/// files re-infer).
///
/// Returns [`StreamingError::Journal`] wrapping [`JournalError::Crashed`]
/// when the journal's injected kill point fires mid-campaign (see
/// [`Journal::crash_after`]), and [`StreamingError::UnsupportedDays`] for
/// multi-day windows — checked before anything is journaled. A journal
/// another seed or driver wrote is refused with [`JournalError::Foreign`].
pub fn run_streaming_campaign_resumable<St: Storage + 'static>(
    params: StreamingParams,
    journal: Journal<St>,
) -> Result<StreamingReport, StreamingError> {
    if params.base.days != 1 {
        return Err(StreamingError::UnsupportedDays {
            days: params.base.days,
        });
    }
    let gate = JournalGate::open(journal, params.base.seed, STREAMING_LABEL)?;
    run_streaming_inner(params, gate)
}

fn run_streaming_inner(
    params: StreamingParams,
    mut journal: JournalGate<'static>,
) -> Result<StreamingReport, StreamingError> {
    if params.base.days != 1 {
        return Err(StreamingError::UnsupportedDays {
            days: params.base.days,
        });
    }
    let mut world = World::new(params.base.seed, params.base.faults);
    if let Some(obs) = &params.base.obs {
        world.telemetry.attach_obs(Arc::clone(obs));
    }
    let mut sim = Simulation::new(world);

    let all: Vec<GranuleId> = GranuleId::day_granules(params.base.platform, params.base.start)
        .take(params.base.files_per_day)
        .collect();
    let expected = all.len();
    let seed = params.base.seed;

    // Partition the day by how far the journal says each granule got.
    let mut pending_granules = VecDeque::new();
    let mut preprocess_queue = VecDeque::new();
    let mut inference_seed: Vec<(String, f64)> = Vec::new();
    let mut parts_arrived = HashMap::new();
    let mut granules_downloaded = 0usize;
    let mut downloaded = ByteSize::ZERO;
    let mut granules_preprocessed = 0usize;
    let mut ship_log: Vec<(String, ByteSize)> = Vec::new();
    let resume = journal.resume();
    for &g in &all {
        let tiles = granule_tiles(seed, g);
        let key = preprocess_key(g, tiles);
        let dl_bytes: u64 = ProductKind::all()
            .into_iter()
            .filter_map(|p| resume.downloaded.get(&g.file_name(p)).copied())
            .sum();
        let dl_parts = ProductKind::all()
            .into_iter()
            .filter(|&p| resume.is_downloaded(&g.file_name(p)))
            .count();
        // Journaled products are pre-credited whatever stage comes next.
        downloaded += ByteSize::bytes(dl_bytes);
        if let Some(&(_, bytes)) = resume.labeled.get(&key) {
            // Label + ship journaled: the granule is fully replayed.
            granules_downloaded += 1;
            granules_preprocessed += 1;
            ship_log.push((key, ByteSize::bytes(bytes)));
        } else if resume.has_tile_file(&key) {
            // Preprocessed but not labeled: re-enter at inference.
            granules_downloaded += 1;
            granules_preprocessed += 1;
            if tiles > 0.0 {
                inference_seed.push((format!("tiles-{g}.nc"), tiles));
            }
        } else if dl_parts == 3 {
            // All products durable: re-enter at preprocessing.
            granules_downloaded += 1;
            preprocess_queue.push_back((g, tiles));
        } else {
            // Waits for the archive; journaled products are skipped when
            // the granule is released.
            if dl_parts > 0 {
                parts_arrived.insert(g, dl_parts);
            }
            pending_granules.push_back(g);
        }
    }

    // Re-entering at inference counts as a monitor trigger unless one is
    // already journaled for the file (dedup across restarts).
    let triggers: Vec<String> = inference_seed
        .iter()
        .map(|(file, _)| file.clone())
        .filter(|file| !resume.monitor_saw(file))
        .collect();
    for file in triggers {
        if journal
            .record(JournalEvent::MonitorTriggered { file })
            .is_err()
        {
            break;
        }
    }

    let st: S = Rc::new(RefCell::new(StState {
        params: params.clone(),
        pending_granules,
        download_queue: VecDeque::new(),
        download: Workers::new("download"),
        parts_arrived,
        granules_downloaded,
        downloaded,
        first_download: None,
        last_download: SimTime::ZERO,
        block_nodes: Vec::new(),
        preprocess_queue,
        preprocess: Workers::new("preprocess"),
        granules_preprocessed,
        first_preprocess: None,
        last_preprocess: SimTime::ZERO,
        inference_queue: inference_seed.into(),
        inference: Workers::new("inference"),
        shipping: 0,
        ship_log,
        last_ship: SimTime::ZERO,
        manifest: None,
        journal,
    }));

    // Allocate the preprocessing block up front; polling starts once the
    // nodes are up.
    let nodes = params.base.nodes;
    let st2 = Rc::clone(&st);
    request_block(
        &mut sim,
        |w: &mut World| &mut w.slurm,
        nodes,
        move |sim, _block, node_list| {
            st2.borrow_mut().block_nodes = node_list;
            poll_archive(sim, &st2);
            pump_preprocess(sim, &st2);
            pump_inference(sim, &st2);
        },
    )
    .expect("cluster has enough nodes");
    sim.run();

    let world = sim.into_state();
    let s = Rc::try_unwrap(st)
        .unwrap_or_else(|_| panic!("streaming closures leaked"))
        .into_inner();
    if s.journal.is_halted() {
        return Err(StreamingError::Journal(JournalError::Crashed));
    }
    assert_eq!(s.granules_downloaded, expected, "archive fully drained");
    let shipped = s.shipped();
    let mut stages = Vec::new();
    if let Some(t0) = s.first_download {
        stages.push(StageReport {
            name: "download".into(),
            started: t0,
            finished: s.last_download,
            items: s.granules_downloaded,
            bytes: s.downloaded,
        });
    }
    if let Some(t0) = s.first_preprocess {
        stages.push(StageReport {
            name: "preprocess".into(),
            started: t0,
            finished: s.last_preprocess,
            items: s.granules_preprocessed,
            bytes: ByteSize::ZERO,
        });
    }
    stages.push(StageReport {
        name: "shipment".into(),
        started: s.first_download.unwrap_or(SimTime::ZERO),
        finished: s.last_ship,
        items: s.ship_log.len(),
        bytes: shipped,
    });
    let makespan_s = [s.last_download, s.last_preprocess, s.last_ship]
        .into_iter()
        .map(|t| t.as_secs_f64())
        .fold(0.0, f64::max);
    Ok(StreamingReport {
        granules_downloaded: s.granules_downloaded,
        granules_preprocessed: s.granules_preprocessed,
        labeled_files: s.ship_log.len(),
        shipped_files: s.ship_log.len(),
        downloaded: s.downloaded,
        shipped,
        makespan_s,
        stages,
        telemetry: world.telemetry,
        manifest: s.manifest,
    })
}

/// Poll the archive: release granules whose availability time has passed
/// into the download queue; reschedule until the archive is drained.
fn poll_archive(sim: &mut Simulation<World>, st: &S) {
    if halted(st) {
        return;
    }
    {
        let mut s = st.borrow_mut();
        let now = sim.now();
        let cat = Catalog::new(s.params.base.seed);
        while let Some(&g) = s.pending_granules.front() {
            if s.params.available_at(g) > now {
                break;
            }
            s.pending_granules.pop_front();
            for product in ProductKind::all() {
                let name = g.file_name(product);
                if s.journal.resume().is_downloaded(&name) {
                    // Journaled before the crash; pre-credited at setup.
                    continue;
                }
                let size = cat.file_size(g, product);
                s.download_queue.push_back((g, product, name, size));
            }
        }
    }
    pump_downloads(sim, st);
    let keep_polling = !st.borrow().pending_granules.is_empty() && !halted(st);
    if keep_polling {
        let period = Duration::from_secs_f64(st.borrow().params.poll_period_s);
        let st2 = Rc::clone(st);
        sim.schedule_in(period, move |sim| poll_archive(sim, &st2));
    }
}

fn pump_downloads(sim: &mut Simulation<World>, st: &S) {
    if halted(st) {
        return;
    }
    loop {
        let now = sim.now();
        let (granule, product, name, size) = {
            let s = &mut *st.borrow_mut();
            let limit = s.params.base.download_workers;
            let tel = &mut sim.state_mut().telemetry;
            let Some(job) = s.download.take(&mut s.download_queue, limit, tel, now) else {
                break;
            };
            s.first_download.get_or_insert(now);
            job
        };
        let st2 = Rc::clone(st);
        let dl_start = sim.now();
        start_flow(sim, "laads", "ace-defiant", size, move |sim, outcome| {
            if halted(&st2) {
                return;
            }
            let now = sim.now();
            st2.borrow_mut()
                .download
                .finish(&mut sim.state_mut().telemetry, now);
            if outcome.is_success()
                && !journal_ok(&st2, |j| {
                    j.record(JournalEvent::FileDownloaded {
                        file: name.clone(),
                        bytes: size.as_u64(),
                    })
                })
            {
                return;
            }
            if outcome.is_success() {
                let trace = TraceContext::new(granule.to_string());
                let tel = &mut sim.state_mut().telemetry;
                tel.span_traced("download", "file", dl_start, now, Some(&trace));
                tel.count("files", "download", 1);
                tel.count("bytes", "download", size.as_u64());
            }
            let granule_ready = {
                let mut s = st2.borrow_mut();
                if outcome.is_success() {
                    s.downloaded += size;
                    s.last_download = now;
                    let parts = s.parts_arrived.entry(granule).or_insert(0);
                    *parts += 1;
                    if *parts == 3 {
                        // All three products in: granule is preprocessable.
                        s.granules_downloaded += 1;
                        let tiles = granule_tiles(s.params.base.seed, granule);
                        s.preprocess_queue.push_back((granule, tiles));
                        true
                    } else {
                        false
                    }
                } else {
                    // Retry: re-enqueue the file.
                    s.download_queue
                        .push_back((granule, product, name.clone(), size));
                    false
                }
            };
            if granule_ready {
                pump_preprocess(sim, &st2);
            }
            pump_downloads(sim, &st2);
        });
    }
}

fn pump_preprocess(sim: &mut Simulation<World>, st: &S) {
    if halted(st) {
        return;
    }
    loop {
        let now = sim.now();
        let (node, (granule, tiles)) = {
            let s = &mut *st.borrow_mut();
            let slots = s.block_nodes.len() * s.params.base.workers_per_node;
            let tel = &mut sim.state_mut().telemetry;
            let Some(job) = s.preprocess.take(&mut s.preprocess_queue, slots, tel, now) else {
                break;
            };
            s.first_preprocess.get_or_insert(now);
            (
                s.block_nodes[s.preprocess.active() % s.block_nodes.len()],
                job,
            )
        };
        let st2 = Rc::clone(st);
        let pp_start = sim.now();
        submit_task(sim, node, tiles.max(12.0), move |sim| {
            if halted(&st2) {
                return;
            }
            // Attribute allocations in the completion path (journal
            // append, span bookkeeping, queue churn) to the stage.
            let _mem = sim
                .state_mut()
                .telemetry
                .resource_scope("preprocess", "granule");
            if !journal_ok(&st2, |j| {
                j.record(JournalEvent::TileFileWritten {
                    file: preprocess_key(granule, tiles),
                    tiles: tiles.round() as u64,
                })
            }) {
                return;
            }
            if tiles > 0.0
                && !journal_ok(&st2, |j| {
                    j.record(JournalEvent::MonitorTriggered {
                        file: format!("tiles-{granule}.nc"),
                    })
                })
            {
                return;
            }
            let now = sim.now();
            {
                let trace = TraceContext::new(granule.to_string());
                let tel = &mut sim.state_mut().telemetry;
                tel.span_traced("preprocess", "granule", pp_start, now, Some(&trace));
                tel.count("granules", "preprocess", 1);
                if tiles > 0.0 {
                    tel.mark_traced("monitor", "trigger", now, Some(&trace));
                    tel.count("triggers", "monitor", 1);
                }
            }
            {
                let mut s = st2.borrow_mut();
                s.preprocess.finish(&mut sim.state_mut().telemetry, now);
                s.granules_preprocessed += 1;
                s.last_preprocess = now;
                if tiles > 0.0 {
                    s.inference_queue
                        .push_back((format!("tiles-{granule}.nc"), tiles));
                }
            }
            pump_inference(sim, &st2);
            pump_preprocess(sim, &st2);
            maybe_finish(sim, &st2);
        });
    }
}

fn pump_inference(sim: &mut Simulation<World>, st: &S) {
    if halted(st) {
        return;
    }
    loop {
        let now = sim.now();
        let ((file, tiles), rate, tile_bytes) = {
            let s = &mut *st.borrow_mut();
            let p = &s.params.base;
            let (limit, rate, tile_bytes) =
                (p.inference_workers, p.inference_rate, p.tile_nc_bytes);
            let tel = &mut sim.state_mut().telemetry;
            let Some(job) = s.inference.take(&mut s.inference_queue, limit, tel, now) else {
                break;
            };
            (job, rate, tile_bytes)
        };
        let overhead = sim.state_mut().flow_overhead.sample().total() * 4;
        let compute = Duration::from_secs_f64(tiles / rate);
        let st2 = Rc::clone(st);
        let inf_start = sim.now();
        sim.schedule_in(overhead + compute, move |sim| {
            if halted(&st2) {
                return;
            }
            let now = sim.now();
            let trace = granule_trace_id(&file).map(TraceContext::new);
            sim.state_mut().telemetry.span_traced(
                "inference",
                "infer",
                inf_start,
                now,
                trace.as_ref(),
            );
            st2.borrow_mut()
                .inference
                .finish(&mut sim.state_mut().telemetry, now);
            // Ship this labeled file immediately (streaming shipment). The
            // label only becomes durable — and is only counted — once the
            // shipment lands, so a crash between inference and shipment
            // re-runs both on resume.
            let size = ByteSize::bytes((tiles * tile_bytes as f64) as u64);
            {
                st2.borrow_mut().shipping += 1;
            }
            let st3 = Rc::clone(&st2);
            let ship_start = sim.now();
            start_flow(
                sim,
                "ace-defiant",
                "frontier-orion",
                size,
                move |sim, out| {
                    if halted(&st3) {
                        return;
                    }
                    if out.is_success()
                        && !journal_ok(&st3, |j| {
                            j.record(JournalEvent::LabelsAppended {
                                file: file.clone(),
                                labels: tiles.round() as u64,
                                bytes: size.as_u64(),
                            })
                        })
                    {
                        return;
                    }
                    {
                        let mut s = st3.borrow_mut();
                        s.shipping -= 1;
                        if out.is_success() {
                            s.ship_log.push((file.clone(), size));
                            s.last_ship = sim.now();
                        }
                    }
                    if out.is_success() {
                        let now = sim.now();
                        let trace = granule_trace_id(&file).map(TraceContext::new);
                        let tel = &mut sim.state_mut().telemetry;
                        tel.span_traced("shipment", "ship", ship_start, now, trace.as_ref());
                        tel.count("files_labeled", "inference", 1);
                        tel.count("files_shipped", "shipment", 1);
                        tel.count("bytes_shipped", "shipment", size.as_u64());
                    }
                    maybe_finish(sim, &st3);
                },
            );
            pump_inference(sim, &st2);
            maybe_finish(sim, &st2);
        });
    }
}

fn maybe_finish(sim: &mut Simulation<World>, st: &S) {
    {
        let s = st.borrow();
        if s.manifest.is_some() || s.journal.is_halted() {
            return;
        }
        let done = s.pending_granules.is_empty()
            && s.download_queue.is_empty()
            && s.download.active() == 0
            && s.preprocess_queue.is_empty()
            && s.preprocess.active() == 0
            && s.inference_queue.is_empty()
            && s.inference.active() == 0
            && s.shipping == 0;
        if !done {
            return;
        }
    }
    let (files, bytes) = {
        let s = st.borrow();
        (s.ship_log.len() as u64, s.shipped().as_u64())
    };
    if !journal_ok(st, |j| {
        j.record(JournalEvent::ShipmentFinished { files, bytes })
    }) {
        return;
    }
    let manifest = {
        let s = st.borrow();
        let artifacts = s
            .ship_log
            .iter()
            .map(|(name, size)| {
                (
                    name.clone(),
                    size.as_u64(),
                    synthetic_digest(name, size.as_u64()),
                )
            })
            .collect();
        shipment_manifest(
            artifacts,
            &sim.state().provenance,
            s.journal.digest(),
            sim.now().as_secs_f64(),
        )
    };
    st.borrow_mut().manifest = Some(manifest);
}

#[cfg(test)]
mod tests {
    use super::*;
    use eoml_journal::MemStorage;

    fn small() -> StreamingParams {
        StreamingParams {
            base: CampaignParams {
                files_per_day: 24,
                nodes: 2,
                ..CampaignParams::paper_demo()
            },
            ..StreamingParams::demo()
        }
    }

    #[test]
    fn streaming_campaign_completes_everything() {
        let r = run_streaming_campaign(small());
        assert_eq!(r.granules_downloaded, 24);
        assert_eq!(r.granules_preprocessed, 24);
        assert_eq!(r.shipped_files, r.labeled_files);
        assert!(r.labeled_files > 0);
        assert!(r.downloaded.as_u64() > 0);
        assert!(r.makespan_s > 0.0);
    }

    #[test]
    fn stages_overlap_in_streaming_mode() {
        // The defining property: downloads and preprocessing (and
        // inference) are concurrent — unlike batch mode, where stage 2
        // waits for stage 1.
        let r = run_streaming_campaign(small());
        assert!(
            r.telemetry.stages_overlap("download", "preprocess"),
            "downloads must overlap preprocessing in streaming mode"
        );
        assert!(r.telemetry.stages_overlap("preprocess", "inference"));
    }

    #[test]
    fn streaming_is_deterministic() {
        let a = run_streaming_campaign(small());
        let b = run_streaming_campaign(small());
        assert_eq!(a.makespan_s, b.makespan_s);
        assert_eq!(a.downloaded, b.downloaded);
        assert_eq!(a.labeled_files, b.labeled_files);
    }

    #[test]
    fn granules_arrive_on_the_compressed_timeline() {
        let p = small();
        // Slot 0 is available after the lag; slot 12 (1 hour of acquisition)
        // after 3600/20 + lag = 240 s.
        let g0 = GranuleId::new(p.base.platform, p.base.start, 0);
        let g12 = GranuleId::new(p.base.platform, p.base.start, 12);
        assert_eq!(p.available_at(g0), SimTime::from_secs_f64(60.0));
        assert_eq!(p.available_at(g12), SimTime::from_secs_f64(240.0));
        // Downloads therefore cannot all start at t=0: the download stage
        // spans a large fraction of the compressed acquisition day.
        let r = run_streaming_campaign(p.clone());
        let dl = r.stages.iter().find(|s| s.name == "download").unwrap();
        let acquisition_span = 24.0 * 300.0 / p.compression;
        assert!(
            dl.seconds() > acquisition_span * 0.5,
            "download window {:.0}s should track the {acquisition_span:.0}s acquisition span",
            dl.seconds()
        );
    }

    #[test]
    fn pipelining_beats_audit_style_sequencing() {
        // Makespan should be far less than the sum of per-stage busy time —
        // the point of streaming.
        let r = run_streaming_campaign(small());
        let stage_sum: f64 = r.stages.iter().map(|s| s.seconds()).sum();
        assert!(
            r.makespan_s < stage_sum,
            "makespan {:.0}s vs stage sum {:.0}s — stages should overlap",
            r.makespan_s,
            stage_sum
        );
    }

    #[test]
    fn resumable_streaming_without_crash_matches_plain() {
        let plain = run_streaming_campaign(small());
        let (journal, _) = Journal::open(MemStorage::new()).unwrap();
        let r = run_streaming_campaign_resumable(small(), journal).unwrap();
        assert_eq!(r.granules_downloaded, plain.granules_downloaded);
        assert_eq!(r.granules_preprocessed, plain.granules_preprocessed);
        assert_eq!(r.labeled_files, plain.labeled_files);
        assert_eq!(r.shipped_files, plain.shipped_files);
        assert_eq!(r.downloaded, plain.downloaded);
        assert_eq!(r.shipped, plain.shipped);
    }

    #[test]
    fn crashed_streaming_campaign_resumes_to_identical_totals() {
        let baseline = run_streaming_campaign(small());
        for kill_at in [5, 23, 47] {
            let store = MemStorage::new();
            let (mut journal, _) = Journal::open(store.clone()).unwrap();
            journal.crash_after(kill_at);
            let crashed = run_streaming_campaign_resumable(small(), journal);
            assert!(
                matches!(crashed, Err(StreamingError::Journal(JournalError::Crashed))),
                "kill {kill_at}"
            );
            let (journal, _) = Journal::open(store).unwrap();
            let r = run_streaming_campaign_resumable(small(), journal).unwrap();
            assert_eq!(r.granules_downloaded, baseline.granules_downloaded);
            assert_eq!(r.granules_preprocessed, baseline.granules_preprocessed);
            assert_eq!(r.labeled_files, baseline.labeled_files, "kill {kill_at}");
            assert_eq!(r.shipped_files, baseline.shipped_files);
            assert_eq!(r.downloaded, baseline.downloaded, "kill {kill_at}");
            assert_eq!(r.shipped, baseline.shipped, "kill {kill_at}");
        }
    }

    #[test]
    fn streaming_manifest_covers_shipped_files_and_survives_resume() {
        let plain = run_streaming_campaign(small());
        let m = plain.manifest.as_ref().expect("manifest");
        assert_eq!(m.len(), plain.shipped_files);
        assert_eq!(m.total_bytes(), plain.shipped.as_u64());
        assert!(m.journal.is_none(), "journal-free run has no digest");

        // Journaled, uninterrupted: the reference manifest id.
        let (journal, _) = Journal::open(MemStorage::new()).unwrap();
        let j0 = run_streaming_campaign_resumable(small(), journal).unwrap();
        let m0 = j0.manifest.as_ref().expect("manifest");
        assert!(m0.journal.is_some(), "journaled run records a digest");

        // Crash mid-pipeline, resume: replayed shipments still appear in
        // the manifest and the id — the destination's idempotency key —
        // is unchanged.
        let store = MemStorage::new();
        let (mut journal, _) = Journal::open(store.clone()).unwrap();
        journal.crash_after(40);
        let _ = run_streaming_campaign_resumable(small(), journal);
        let (journal, _) = Journal::open(store).unwrap();
        let r = run_streaming_campaign_resumable(small(), journal).unwrap();
        let m1 = r.manifest.as_ref().expect("manifest");
        assert_eq!(m1.len(), plain.shipped_files);
        assert_eq!(m1.id(), m0.id());
    }

    #[test]
    fn multi_day_windows_return_a_typed_recoverable_error() {
        let mut p = small();
        p.base.days = 3;
        // The plain entry point reports through the typed error...
        let err = try_run_streaming_campaign(p.clone()).unwrap_err();
        assert_eq!(err, StreamingError::UnsupportedDays { days: 3 });
        assert!(err.to_string().contains("one acquisition day"));
        // ...and the journaled one rejects before touching the journal,
        // so the store stays reusable for a corrected run.
        let store = MemStorage::new();
        let (journal, _) = Journal::open(store.clone()).unwrap();
        let err = run_streaming_campaign_resumable(p.clone(), journal).unwrap_err();
        assert!(matches!(err, StreamingError::UnsupportedDays { days: 3 }));
        let (journal, recovery) = Journal::open(store).unwrap();
        assert_eq!(recovery.events, 0, "rejected run must journal nothing");
        p.base.days = 1;
        run_streaming_campaign_resumable(p, journal).unwrap();
    }

    #[test]
    fn observed_streaming_campaign_covers_all_five_stages() {
        let obs = eoml_obs::Obs::shared();
        let mut p = small();
        p.base.obs = Some(Arc::clone(&obs));
        let r = run_streaming_campaign(p);
        let spans = obs.spans();
        for stage in ["download", "preprocess", "monitor", "inference", "shipment"] {
            assert!(
                spans.iter().any(|s| s.stage == stage),
                "no {stage} spans in obs"
            );
        }
        let m = obs.metrics();
        assert_eq!(m.counter_value("granules", "preprocess"), Some(24));
        assert_eq!(
            m.counter_value("files_shipped", "shipment"),
            Some(r.shipped_files as u64)
        );
        assert_eq!(
            m.counter_value("bytes", "download"),
            Some(r.downloaded.as_u64())
        );
    }

    #[test]
    fn monitor_triggers_are_deduplicated_across_restarts() {
        // Crash late (after some labels landed), resume, and check that the
        // final journal has no duplicate MonitorTriggered events.
        let store = MemStorage::new();
        let (mut journal, _) = Journal::open(store.clone()).unwrap();
        journal.crash_after(40);
        let _ = run_streaming_campaign_resumable(small(), journal);
        let (journal, _) = Journal::open(store.clone()).unwrap();
        run_streaming_campaign_resumable(small(), journal).unwrap();
        let (journal, _) = Journal::open(store).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for event in journal.events() {
            if let JournalEvent::MonitorTriggered { file } = event {
                assert!(seen.insert(file.clone()), "duplicate trigger for {file}");
            }
        }
        assert!(!seen.is_empty(), "no monitor triggers journaled");
    }
}

//! The layer sweep: each crate's public calls, timed one by one on a
//! workload's granules, plus the journal and simulator layers.

use crate::inputs::{RealBatch, WORLD_SEED};
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use eoml_core::{run_campaign, CampaignParams};
use eoml_journal::{FileStorage, Journal, JournalEvent};
use eoml_modis::container::ContainerError;
use eoml_modis::files::{swath_from_products, to_mod02, to_mod03, to_mod06};
use eoml_modis::{Container, SwathSynthesizer};
use eoml_ncdf::NcFile;
use eoml_obs::Obs;
use eoml_preprocess::{append_labels, extract_tiles, read_tiles_nc, write_tiles_nc, TileCriteria};
use eoml_ricc::{AeConfig, AiccaModel, Tensor};
use rayon::ThreadPoolBuilder;
use std::path::Path;
use std::sync::Arc;

/// Tiles per granule that the single-threaded predict reference encodes
/// (a per-tile cost, so a prefix suffices).
const PREDICT_1T_TILES: usize = 32;
/// Appends the journal sweep makes.
const JOURNAL_APPENDS: usize = 256;
/// Headline simulated campaigns timed per run.
const SIM_CAMPAIGNS: usize = 25;

/// Journal work counted by an [`Obs`] hub attached to a journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalCounts {
    /// Events appended.
    pub events: u64,
    /// Appends made durable with an fsync.
    pub fsyncs: u64,
    /// Journal opens that ran recovery.
    pub recoveries: u64,
}

impl JournalCounts {
    /// Read the journal counters of `hub`.
    pub fn from_hub(hub: &Obs) -> JournalCounts {
        let counter = |name| hub.metrics().counter_value(name, "journal").unwrap_or(0);
        JournalCounts {
            events: counter("appends"),
            fsyncs: counter("fsyncs"),
            recoveries: counter("recoveries"),
        }
    }

    /// Record the counts as the `journal.*` count metrics.
    pub fn report(&self, out: &mut Outcome) {
        out.set("journal.events", self.events as f64);
        out.set("journal.fsyncs", self.fsyncs as f64);
        out.set("journal.recoveries", self.recoveries as f64);
    }
}

/// Floating-point operations to label one tile: the encoder's two strided
/// 3×3 convolutions and its dense layer (two flops per multiply-add), plus
/// the nearest-centroid search (subtract, square, add per latent value).
pub fn flops_per_tile(cfg: &AeConfig, classes: usize) -> u64 {
    let (half, quarter) = ((cfg.input / 2).pow(2), (cfg.input / 4).pow(2));
    let macs = half * cfg.c1 * cfg.in_ch * 9
        + quarter * cfg.c2 * cfg.c1 * 9
        + cfg.latent * cfg.c2 * quarter;
    (2 * macs + 3 * cfg.latent * classes) as u64
}

fn pool(threads: usize) -> rayon::ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the rayon shim always builds")
}

/// Time every data layer's calls on each granule of `batch`, checking each
/// round trip: synthesis, product encode and decode (modis), tile
/// extraction on two threads and on one (preprocess), tile-file write,
/// read and label append (ncdf), and inference on two threads and on one
/// (ricc). Reports the modis, preprocess, ncdf and ricc per-call metrics
/// (`ricc.model_setup_s` aside) and the exact work counts.
pub fn sweep(tracer: &Tracer, batch: &RealBatch, model: &AiccaModel) -> Result<Outcome, String> {
    let synth = SwathSynthesizer::new(WORLD_SEED, batch.dims);
    let mut criteria = TileCriteria {
        tile_size: batch.tile_size,
        ..TileCriteria::default()
    };
    if batch.accept_all {
        criteria.min_ocean_fraction = 0.0;
        criteria.min_cloud_fraction = 0.0;
    }
    let (two, one) = (pool(2), pool(1));
    let (mut product_bytes, mut nc_bytes) = (0usize, 0usize);
    let (mut candidates, mut tiles, mut tiles_1t) = (0usize, 0usize, 0usize);
    for &g in &batch.granules {
        let swath = tracer.span("modis", "synthesize", || synth.synthesize(g));
        let encoded = tracer.span("modis", "encode", || {
            [to_mod02(&swath), to_mod03(&swath), to_mod06(&swath)].map(|c| c.encode())
        });
        product_bytes += encoded.iter().map(Vec::len).sum::<usize>();
        let decoded = tracer.span("modis", "decode", || {
            let [c02, c03, c06] = [0, 1, 2].map(|i| Container::decode(&encoded[i]));
            let decode = |c: Result<Container, _>| c.map_err(|e: ContainerError| e.to_string());
            swath_from_products(&decode(c02)?, &decode(c03)?, &decode(c06)?)
                .map_err(|e| e.to_string())
        });
        let decoded = decoded.map_err(|e| format!("{g}: product decode: {e}"))?;
        if decoded.radiance != swath.radiance || decoded.cloud != swath.cloud {
            return Err(format!("{g}: products do not round-trip the swath"));
        }
        if !swath.day {
            continue;
        }
        let set = two
            .install(|| tracer.span("preprocess", "extract", || extract_tiles(&swath, &criteria)));
        let set_1t = one.install(|| {
            tracer.span("preprocess", "extract_1t", || {
                extract_tiles(&swath, &criteria)
            })
        });
        if set.tiles != set_1t.tiles {
            return Err(format!("{g}: extraction depends on the thread count"));
        }
        candidates += set.candidates;
        tiles += set.len();
        if set.is_empty() {
            continue;
        }

        let written = tracer.span("ncdf", "write", || {
            write_tiles_nc(&set.tiles)
                .map_err(|e| e.to_string())
                .and_then(|nc| nc.encode().map_err(|e| e.to_string()))
        });
        let written = written.map_err(|e| format!("{g}: tile file write: {e}"))?;
        nc_bytes += written.len();
        let read = tracer.span("ncdf", "read", || {
            let nc = NcFile::decode(&written).map_err(|e| e.to_string())?;
            let (back, labels) = read_tiles_nc(&nc).map_err(|e| e.to_string())?;
            Ok::<_, String>((nc, back, labels))
        });
        let (mut nc, back, labels) = read.map_err(|e| format!("{g}: tile file read: {e}"))?;
        if back != set.tiles || labels.is_some() {
            return Err(format!("{g}: tile file does not round-trip its tiles"));
        }

        let tensors: Vec<Tensor> = set
            .tiles
            .iter()
            .map(|t| Tensor::from_data(t.bands.len(), t.size, t.size, t.data.clone()))
            .collect();
        let labels =
            two.install(|| tracer.span("ricc", "predict", || model.predict_batch(&tensors)));
        let prefix = &tensors[..tensors.len().min(PREDICT_1T_TILES)];
        let labels_1t =
            one.install(|| tracer.span("ricc", "predict_1t", || model.predict_batch(prefix)));
        tiles_1t += prefix.len();
        if labels_1t[..] != labels[..prefix.len()] {
            return Err(format!("{g}: inference depends on the thread count"));
        }

        let labels: Vec<i32> = labels.iter().map(|&l| l as i32).collect();
        let appended = tracer.span("ncdf", "append", || {
            append_labels(&mut nc, &labels).map_err(|e| e.to_string())?;
            nc.encode().map_err(|e| e.to_string())
        });
        let appended = appended.map_err(|e| format!("{g}: label append: {e}"))?;
        let labelled = NcFile::decode(&appended)
            .map_err(|e| e.to_string())
            .and_then(|nc| read_tiles_nc(&nc).map_err(|e| e.to_string()))
            .map_err(|e| format!("{g}: labelled tile file: {e}"))?;
        if labelled.1.as_deref() != Some(&labels[..]) {
            return Err(format!("{g}: appended labels do not read back"));
        }
    }
    if tiles == 0 {
        return Err("the layer sweep's granules yielded no tiles".into());
    }

    let per_call = |layer: &str, call: &str| {
        median(&tracer.secs(layer, call)).ok_or_else(|| format!("no {layer}.{call} span"))
    };
    let mut out = Outcome {
        attempted: batch.granules.len() as u64,
        ..Outcome::default()
    };
    out.set("modis.synthesize_s", per_call("modis", "synthesize")?);
    out.set("modis.encode_s", per_call("modis", "encode")?);
    out.set("modis.decode_s", per_call("modis", "decode")?);
    out.set(
        "modis.bytes_per_granule",
        product_bytes as f64 / batch.granules.len() as f64,
    );
    out.set("preprocess.extract_s", per_call("preprocess", "extract")?);
    out.set(
        "preprocess.extract_1t_s",
        per_call("preprocess", "extract_1t")?,
    );
    out.set("preprocess.accept_ratio", tiles as f64 / candidates as f64);
    out.set("ncdf.write_s", per_call("ncdf", "write")?);
    out.set("ncdf.read_s", per_call("ncdf", "read")?);
    out.set("ncdf.append_s", per_call("ncdf", "append")?);
    out.set("ncdf.bytes_per_tile", nc_bytes as f64 / tiles as f64);
    out.set(
        "ricc.predict_s_per_tile",
        tracer.total("ricc", "predict") / tiles as f64,
    );
    out.set(
        "ricc.predict_1t_s_per_tile",
        tracer.total("ricc", "predict_1t") / tiles_1t as f64,
    );
    out.set(
        "ricc.flops_per_tile",
        flops_per_tile(&model.encoder.cfg, model.num_classes()) as f64,
    );
    Ok(out)
}

/// Append [`JOURNAL_APPENDS`] events to a fresh file journal, one traced
/// `Journal::append` each, then reopen it. Returns the journal's counts;
/// reports `journal.append_s`.
pub fn journal(tracer: &Tracer, dir: &Path) -> Result<(Outcome, JournalCounts), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("sweep.wal");
    let _ = std::fs::remove_file(&path);
    let hub = Obs::shared();
    let (mut journal, _) = Journal::open_observed(FileStorage::new(&path), Arc::clone(&hub))
        .map_err(|e| format!("journal open: {e}"))?;
    for i in 0..JOURNAL_APPENDS {
        let event = JournalEvent::FileDownloaded {
            file: format!("MOD021KM.A2022001.{i:04}.eogr"),
            bytes: 1 << 26,
        };
        tracer
            .span("journal", "append", || journal.append(event))
            .map_err(|e| format!("journal append: {e}"))?;
    }
    drop(journal);
    let (reopened, _) = Journal::open_observed(FileStorage::new(&path), Arc::clone(&hub))
        .map_err(|e| format!("journal reopen: {e}"))?;
    let recovered = reopened
        .events()
        .iter()
        .filter(|e| matches!(e, JournalEvent::FileDownloaded { .. }))
        .count();
    drop(reopened);
    let _ = std::fs::remove_file(&path);
    let mut out = Outcome {
        attempted: JOURNAL_APPENDS as u64,
        failed: JOURNAL_APPENDS.saturating_sub(recovered) as u64,
        ..Outcome::default()
    };
    out.set(
        "journal.append_s",
        median(&tracer.secs("journal", "append")).ok_or("no journal append span")?,
    );
    Ok((out, JournalCounts::from_hub(&hub)))
}

/// Time the paper's headline simulated campaign [`SIM_CAMPAIGNS`] times;
/// reports `core.sim_campaign_s`.
pub fn simulator(tracer: &Tracer) -> Result<Outcome, String> {
    let tiles: Vec<f64> = (0..SIM_CAMPAIGNS)
        .map(|_| {
            tracer.span("core", "sim_campaign", || {
                run_campaign(CampaignParams::paper_demo()).total_tiles
            })
        })
        .collect();
    let mut out = Outcome {
        attempted: SIM_CAMPAIGNS as u64,
        failed: tiles.iter().filter(|&&t| t <= 0.0 || t != tiles[0]).count() as u64,
        ..Outcome::default()
    };
    out.set(
        "core.sim_campaign_s",
        median(&tracer.secs("core", "sim_campaign")).ok_or("no simulated campaign span")?,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_count_of_the_pipeline_encoder() {
        let cfg = AeConfig {
            in_ch: 6,
            c1: 8,
            c2: 16,
            latent: 24,
            input: 32,
            lr: 1e-3,
            lambda: 0.1,
        };
        // conv1 16²·8·6·9 + conv2 8²·16·8·9 + dense 24·16·8² MACs.
        let macs = 256 * 8 * 6 * 9 + 64 * 16 * 8 * 9 + 24 * 16 * 64;
        assert_eq!(flops_per_tile(&cfg, 42), (2 * macs + 3 * 24 * 42) as u64);
    }
}

#[cfg(test)]
mod repeat_tests {
    use super::*;
    use crate::inputs;

    const COUNTS: [&str; 3] = [
        "modis.bytes_per_granule",
        "ncdf.bytes_per_tile",
        "ricc.flops_per_tile",
    ];

    fn counts(out: &Outcome) -> Vec<f64> {
        COUNTS
            .iter()
            .map(|name| out.metrics.iter().find(|(n, _)| n == name).unwrap().1)
            .collect()
    }

    #[test]
    fn sweep_counts_repeat_across_passes() {
        let batch = inputs::mini_dense(9);
        let model = AiccaModel::pretrained(
            AeConfig {
                in_ch: 6,
                c1: 8,
                c2: 16,
                latent: 24,
                input: batch.tile_size,
                lr: 1e-3,
                lambda: 0.1,
            },
            WORLD_SEED,
        );
        let first = sweep(&Tracer::on(), &batch, &model).unwrap();
        let second = sweep(&Tracer::on(), &batch, &model).unwrap();
        assert_eq!(counts(&first), counts(&second));
        assert!(counts(&first).iter().all(|&c| c > 0.0));
        assert_eq!(first.failed, 0);
    }

    #[test]
    fn journal_counts_repeat_across_passes() {
        let dir = std::env::temp_dir().join(format!("eoml-perfbench-wal-{}", std::process::id()));
        let (a, first) = journal(&Tracer::on(), &dir).unwrap();
        let (_, second) = journal(&Tracer::on(), &dir).unwrap();
        assert_eq!(first, second);
        assert_eq!(a.failed, 0);
        assert!(first.events >= JOURNAL_APPENDS as u64);
        assert_eq!(first.recoveries, 2, "open plus reopen");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

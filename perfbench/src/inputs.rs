//! Workload inputs, generated from the benchmark seed.
//!
//! The seed picks *which* granules and tenants a run processes; the
//! synthetic world they come from is fixed ([`WORLD_SEED`], the
//! repository's reference world), so every seed runs the same model and
//! land mask and only the inputs differ. The same seed always yields the
//! same inputs.

use eoml_modis::granule::SLOTS_PER_DAY;
use eoml_modis::{GranuleId, Platform, Swath, SwathDims, SwathSynthesizer};
use eoml_util::{CivilDate, Rng64, SplitMix64};

/// Seed of the synthetic world (land mask, cloud fields, model weights).
pub const WORLD_SEED: u64 = 2022;
/// Year the seed-chosen acquisition days fall in.
const YEAR: i32 = 2022;
/// Day granules in one `real_dense` batch.
pub const DENSE_GRANULES: usize = 16;
/// Day granules in the mini batch that stands in for the real pipeline on
/// the service workload's traced run.
pub const MINI_GRANULES: usize = 4;
/// Open-ocean day granules in one `real_fullsize` batch.
pub const FULL_DAY_GRANULES: usize = 2;
/// Night granules in one `real_fullsize` batch.
pub const FULL_NIGHT_GRANULES: usize = 1;
/// Minimum ocean fraction of a `real_fullsize` day granule, so that the
/// paper's ocean-only tile criterion accepts a similar share of windows
/// whatever the seed.
pub const FULL_MIN_OCEAN: f64 = 0.95;
/// Small tenants in one `service_storm` population.
pub const STORM_SMALL: usize = 400;
/// Whale tenants in one `service_storm` population.
pub const STORM_WHALES: usize = 3;
/// Days per whale campaign.
pub const WHALE_DAYS: usize = 3;

/// One real-pipeline batch: what `RealPipeline::new` and `run` receive.
#[derive(Debug, Clone, PartialEq)]
pub struct RealBatch {
    /// Swath raster size.
    pub dims: SwathDims,
    /// Square tile edge (also the model input size).
    pub tile_size: usize,
    /// Accept every window (thresholds 0, 0) instead of the paper's
    /// ocean/cloud criteria.
    pub accept_all: bool,
    /// Whether the run is journaled (`run_resumable` on a file journal).
    pub journaled: bool,
    /// Granules, in processing order.
    pub granules: Vec<GranuleId>,
}

/// One tenant population of the campaign service.
#[derive(Debug, Clone, PartialEq)]
pub struct StormPlan {
    /// `(tenant id, campaign seed)` of each one-day small tenant.
    pub small: Vec<(String, u64)>,
    /// `(tenant id, campaign seed)` of each multi-day whale tenant.
    pub whales: Vec<(String, u64)>,
}

impl StormPlan {
    /// Campaigns the plan submits.
    pub fn campaigns(&self) -> usize {
        self.small.len() + self.whales.len()
    }

    /// Admission quanta a full drain runs (one per campaign day).
    pub fn quanta(&self) -> usize {
        self.small.len() + self.whales.len() * WHALE_DAYS
    }
}

/// Independent stream per workload, so two workloads on one seed do not
/// pick correlated inputs.
fn stream(seed: u64, workload: u64) -> SplitMix64 {
    SplitMix64::new(SplitMix64::mix(seed) ^ workload)
}

/// A cheap synthesizer that decides day/night and ocean fraction for
/// granules of `dims` without rendering them: same scan lines, a 32-pixel
/// cross-track sample. For 256-pixel swaths its swath centre lies on the
/// same geolocation lattice point as the full raster's, so the day flag
/// is exact; for full MODIS swaths it is a close estimate.
fn probe(dims: SwathDims) -> SwathSynthesizer {
    SwathSynthesizer::new(
        WORLD_SEED,
        SwathDims {
            lines: dims.lines,
            pixels: 32,
        },
    )
}

/// Granules of one day starting at a seed-chosen slot, wrapping around
/// midnight, then continuing on the following days.
fn scan(rng: &mut SplitMix64, platform: Platform) -> impl Iterator<Item = GranuleId> {
    let doy = 1 + (rng.next_u64() % 365) as u16;
    let start = (rng.next_u64() % SLOTS_PER_DAY as u64) as u16;
    let first = CivilDate::from_ordinal(YEAR, doy).expect("day of year in range");
    (0..).flat_map(move |day: i64| {
        let date = CivilDate::from_days_from_epoch(first.days_from_epoch() + day);
        (0..SLOTS_PER_DAY).map(move |k| GranuleId::new(platform, date, (start + k) % SLOTS_PER_DAY))
    })
}

/// The first `n` day granules from a seed-chosen day and slot.
fn day_granules(seed: u64, workload: u64, dims: SwathDims, n: usize) -> Vec<GranuleId> {
    let mut rng = stream(seed, workload);
    let platform = if rng.next_u64() & 1 == 0 {
        Platform::Terra
    } else {
        Platform::Aqua
    };
    let probe = probe(dims);
    scan(&mut rng, platform)
        .filter(|&g| probe.synthesize(g).day)
        .take(n)
        .collect()
}

/// `real_dense`: 16 day granules of 256 × 256 pixels, 32-pixel tiles,
/// every window accepted, no journal.
pub fn real_dense(seed: u64) -> RealBatch {
    RealBatch {
        dims: SwathDims::small(),
        tile_size: 32,
        accept_all: true,
        journaled: false,
        granules: day_granules(seed, 0xD3, SwathDims::small(), DENSE_GRANULES),
    }
}

/// The `real_dense` shape over [`MINI_GRANULES`] granules.
pub fn mini_dense(seed: u64) -> RealBatch {
    RealBatch {
        granules: day_granules(seed, 0x31, SwathDims::small(), MINI_GRANULES),
        ..real_dense(seed)
    }
}

/// `real_fullsize`: full 2030 × 1354 Terra granules from a seed-chosen day
/// and slot — two open-ocean day granules with one night granule between
/// them — with the paper's 128-pixel tiles and default criteria,
/// journaled.
pub fn real_fullsize(seed: u64) -> RealBatch {
    let dims = SwathDims::modis();
    let probe = probe(dims);
    let mut rng = stream(seed, 0xF5);
    let (mut day, mut night) = (Vec::new(), Vec::new());
    for g in scan(&mut rng, Platform::Terra) {
        let swath: Swath = probe.synthesize(g);
        if swath.day {
            if day.len() < FULL_DAY_GRANULES && swath.ocean_fraction() >= FULL_MIN_OCEAN {
                day.push(g);
            }
        } else if night.len() < FULL_NIGHT_GRANULES {
            night.push(g);
        }
        if day.len() == FULL_DAY_GRANULES && night.len() == FULL_NIGHT_GRANULES {
            break;
        }
    }
    // Day, night, day: the executor hands each of its two workers a
    // contiguous half of the batch, so both day granules are decoded at
    // once and a pass's memory peak does not depend on where the night
    // granule fell in the day.
    let mut granules = day;
    granules.sort_by_key(|g| (g.date.days_from_epoch(), g.slot));
    granules.splice(1..1, night);
    RealBatch {
        dims,
        tile_size: 128,
        accept_all: false,
        journaled: true,
        granules,
    }
}

fn storm_plan(seed: u64, workload: u64, small: usize, whales: usize) -> StormPlan {
    let mut rng = stream(seed, workload);
    StormPlan {
        small: (0..small)
            .map(|i| (format!("small-{i:04}"), rng.next_u64() % 1_000_000))
            .collect(),
        whales: (0..whales)
            .map(|i| (format!("whale-{i}"), rng.next_u64() % 1_000_000))
            .collect(),
    }
}

/// `service_storm`: 400 one-day tenants plus 3 three-day whales.
pub fn service_storm(seed: u64) -> StormPlan {
    storm_plan(seed, 0x57, STORM_SMALL, STORM_WHALES)
}

/// A small population that stands in for the service on the real
/// workloads' traced runs.
pub fn mini_storm(seed: u64) -> StormPlan {
    storm_plan(seed, 0x5A, 8, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(real_dense(7), real_dense(7));
        assert_eq!(real_fullsize(7), real_fullsize(7));
        assert_eq!(service_storm(7), service_storm(7));
    }

    #[test]
    fn different_seed_changes_the_granule_set() {
        assert_ne!(real_dense(1).granules, real_dense(2).granules);
        assert_ne!(real_fullsize(1).granules, real_fullsize(2).granules);
        assert_ne!(mini_dense(1).granules, mini_dense(2).granules);
        assert_ne!(service_storm(1), service_storm(2));
    }

    #[test]
    fn dense_batches_are_day_only_under_real_synthesis() {
        for seed in [1, 2, 3] {
            let batch = real_dense(seed);
            assert_eq!(batch.granules.len(), DENSE_GRANULES);
            let synth = SwathSynthesizer::new(WORLD_SEED, batch.dims);
            for g in &batch.granules {
                assert!(
                    synth.synthesize(*g).day,
                    "seed {seed}: {g} is a night granule"
                );
            }
        }
    }

    #[test]
    fn fullsize_batch_mixes_day_and_night_from_one_day() {
        let batch = real_fullsize(11);
        assert_eq!(
            batch.granules.len(),
            FULL_DAY_GRANULES + FULL_NIGHT_GRANULES
        );
        assert!(batch.granules.iter().all(|g| g.platform == Platform::Terra));
        let probe = probe(batch.dims);
        let days: Vec<bool> = batch
            .granules
            .iter()
            .map(|g| probe.synthesize(*g).day)
            .collect();
        assert_eq!(days, [true, false, true], "day, night, day");
    }
}

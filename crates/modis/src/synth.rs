//! The swath synthesizer — deterministic, physically plausible MODIS scenes.
//!
//! A [`Swath`] is the in-memory union of the three products for one granule:
//! radiances (MOD02), geolocation and land mask (MOD03), and cloud products
//! (MOD06). The synthesizer produces it from `(seed, granule id)` alone:
//!
//! * geolocation comes from the sun-synchronous orbit propagator, computed
//!   on a coarse lattice and interpolated through 3-D unit vectors (the same
//!   trick the real MOD03 5-km → 1-km interpolation uses, and robust across
//!   the antimeridian);
//! * cloudiness is a multi-octave fBm field in along-track/cross-track
//!   coordinates (continuous across granule boundaries) modulated by a
//!   latitude climatology (ITCZ and mid-latitude storm tracks are cloudier);
//! * radiances follow a toy radiative model: reflective bands respond to
//!   surface albedo and cloud optical thickness (and are missing at night,
//!   as in the real instrument), thermal bands to surface/cloud-top
//!   brightness temperature.

use crate::granule::GranuleId;
use crate::product::{is_reflective_band, AICCA_BANDS};
use eoml_geo::landmask::LandMask;
use eoml_geo::latlon::LatLon;
use eoml_geo::orbit::{OrbitParams, SunSyncOrbit, SwathGeometry};
use eoml_util::noise::Fbm;
use rayon::prelude::*;

/// Fill value for radiances that are unavailable (reflective bands at
/// night) — mirrors the `_FillValue` convention of the real product.
pub const RADIANCE_FILL: f32 = -999.0;

/// Swath raster dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwathDims {
    /// Along-track scan lines.
    pub lines: usize,
    /// Cross-track pixels per line.
    pub pixels: usize,
}

impl SwathDims {
    /// Full MODIS 1-km granule: 2030 × 1354.
    pub const fn modis() -> Self {
        Self {
            lines: 2030,
            pixels: 1354,
        }
    }

    /// Reduced size for tests and examples: 256 × 256 (4 × 2 tiles of 128²).
    pub const fn small() -> Self {
        Self {
            lines: 256,
            pixels: 256,
        }
    }

    /// Total pixel count.
    pub const fn len(&self) -> usize {
        self.lines * self.pixels
    }

    /// True if either dimension is zero.
    pub const fn is_empty(&self) -> bool {
        self.lines == 0 || self.pixels == 0
    }

    /// Flat index of `(line, pixel)`.
    pub const fn idx(&self, line: usize, pixel: usize) -> usize {
        line * self.pixels + pixel
    }
}

/// One granule's worth of co-registered fields (the union of MOD02, MOD03
/// and MOD06 for the pipeline's purposes).
#[derive(Debug, Clone)]
pub struct Swath {
    /// Which granule this is.
    pub id: GranuleId,
    /// Raster dimensions.
    pub dims: SwathDims,
    /// Band numbers present in `radiance`, in order.
    pub bands: Vec<u8>,
    /// Radiances, band-major: `radiance[b * dims.len() + idx]`.
    /// Reflective bands hold [`RADIANCE_FILL`] at night.
    pub radiance: Vec<f32>,
    /// Per-pixel latitude, degrees.
    pub lat: Vec<f32>,
    /// Per-pixel longitude, degrees.
    pub lon: Vec<f32>,
    /// 1 = land, 0 = ocean (from MOD03 land/sea flags).
    pub land: Vec<u8>,
    /// 1 = cloudy, 0 = clear (from the MOD06 cloud mask).
    pub cloud: Vec<u8>,
    /// Cloud optical thickness (0 where clear).
    pub cot: Vec<f32>,
    /// Cloud-top pressure, hPa (0 where clear).
    pub ctp: Vec<f32>,
    /// Cloud effective radius, µm (0 where clear).
    pub cer: Vec<f32>,
    /// Whether the granule is daytime (reflective bands valid).
    pub day: bool,
}

impl Swath {
    /// Fraction of pixels flagged cloudy.
    pub fn cloud_fraction(&self) -> f64 {
        if self.cloud.is_empty() {
            return 0.0;
        }
        self.cloud.iter().map(|&c| c as u64).sum::<u64>() as f64 / self.cloud.len() as f64
    }

    /// Fraction of pixels flagged ocean.
    pub fn ocean_fraction(&self) -> f64 {
        if self.land.is_empty() {
            return 0.0;
        }
        1.0 - self.land.iter().map(|&c| c as u64).sum::<u64>() as f64 / self.land.len() as f64
    }

    /// Radiance plane for band-list index `b` (not band number).
    pub fn band_plane(&self, b: usize) -> &[f32] {
        let n = self.dims.len();
        &self.radiance[b * n..(b + 1) * n]
    }
}

/// Deterministic generator of [`Swath`]s.
#[derive(Debug, Clone)]
pub struct SwathSynthesizer {
    seed: u64,
    dims: SwathDims,
    terra: SwathGeometry,
    aqua: SwathGeometry,
    landmask: LandMask,
    cloud_field: Fbm,
    cot_field: Fbm,
    ctp_field: Fbm,
    cer_field: Fbm,
}

impl SwathSynthesizer {
    /// Synthesizer for `seed` producing granules of `dims`.
    pub fn new(seed: u64, dims: SwathDims) -> Self {
        Self {
            seed,
            dims,
            terra: SwathGeometry::modis_1km(SunSyncOrbit::new(OrbitParams::terra())),
            aqua: SwathGeometry::modis_1km(SunSyncOrbit::new(OrbitParams::aqua())),
            landmask: LandMask::earth_like(seed),
            cloud_field: Fbm::new(seed ^ 0xC10D, 6),
            cot_field: Fbm::new(seed ^ 0x0C07, 5),
            ctp_field: Fbm::new(seed ^ 0x0C79, 4),
            cer_field: Fbm::new(seed ^ 0x0CE6, 4),
        }
    }

    /// The generator's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The raster dimensions this synthesizer produces.
    pub fn dims(&self) -> SwathDims {
        self.dims
    }

    /// The land mask shared by all granules of this synthesizer.
    pub fn landmask(&self) -> &LandMask {
        &self.landmask
    }

    fn geometry(&self, id: &GranuleId) -> &SwathGeometry {
        match id.platform {
            crate::product::Platform::Terra => &self.terra,
            crate::product::Platform::Aqua => &self.aqua,
        }
    }

    /// Generate the full co-registered swath for `id`.
    ///
    /// Rows are filled in parallel bands of 32 (`BAND_LINES`) scan lines, each
    /// written straight into its slice of the output buffers. Every pixel
    /// is a function of `(seed, id, line, pixel)` alone, so the swath is
    /// bit-identical whatever the thread count.
    pub fn synthesize(&self, id: GranuleId) -> Swath {
        let dims = self.dims;
        let n = dims.len();
        let geo = self.geo_lattice(id);

        // Day/night from the solar zenith angle at the swath center (the
        // real product's criterion; reflective bands need sunlight).
        let (clat, clon) = geo.pixel(dims.lines / 2, dims.pixels / 2);
        let center_pt = LatLon::new(clat as f64, clon as f64);
        let zenith = eoml_geo::solar::solar_zenith_deg(&center_pt, id.start_time());
        let day = zenith < 81.0;

        let bands: Vec<u8> = AICCA_BANDS.to_vec();
        let mut radiance = vec![0.0f32; bands.len() * n];
        let mut lat = vec![0.0f32; n];
        let mut lon = vec![0.0f32; n];
        let mut land = vec![0u8; n];
        let mut cloud = vec![0u8; n];
        let mut cot = vec![0.0f32; n];
        let mut ctp = vec![0.0f32; n];
        let mut cer = vec![0.0f32; n];
        let mut rest = SwathRows {
            lat: &mut lat,
            lon: &mut lon,
            land: &mut land,
            cloud: &mut cloud,
            cot: &mut cot,
            ctp: &mut ctp,
            cer: &mut cer,
            radiance: radiance.chunks_mut(n.max(1)).collect(),
        };
        let mut row_bands = Vec::with_capacity(dims.lines.div_ceil(BAND_LINES));
        for first_line in (0..dims.lines).step_by(BAND_LINES) {
            let lines = BAND_LINES.min(dims.lines - first_line);
            let (head, tail) = rest.split_at(lines * dims.pixels);
            row_bands.push((first_line, head));
            rest = tail;
        }
        let scene = Scene {
            synth: self,
            geo: &geo,
            bands: &bands,
            day,
            // The along-track coordinate advances with the granule slot so
            // that consecutive granules are spatially continuous.
            along0: id.orbit_time_s() * 6.7, // ≈ km along track
        };
        // The pool hands each worker a contiguous run of the list: listing
        // the even bands before the odd ones gives each of two workers rows
        // from the whole granule, so cloudy (costlier) stretches share out.
        let (mut dealt, odd): (Vec<_>, Vec<_>) = row_bands
            .into_iter()
            .partition(|(first_line, _)| (first_line / BAND_LINES).is_multiple_of(2));
        dealt.extend(odd);
        let _: Vec<()> = dealt
            .into_par_iter()
            .map(|(first_line, rows)| scene.fill(first_line, rows))
            .collect();

        Swath {
            id,
            dims,
            bands,
            radiance,
            lat,
            lon,
            land,
            cloud,
            cot,
            ctp,
            cer,
            day,
        }
    }

    /// Coarse geolocation lattice of unit vectors for granule `id`.
    fn geo_lattice(&self, id: GranuleId) -> GeoLattice {
        let dims = self.dims;
        let geom = self.geometry(&id);
        let t0 = id.orbit_time_s();
        let line_dt = geom.line_period_s();

        // Coarse lattice of unit vectors, inclusive of the far edges.
        let glines = dims.lines.div_ceil(GEO_STEP) + 1;
        let gpix = dims.pixels.div_ceil(GEO_STEP) + 1;
        let mut gx = vec![0.0f64; glines * gpix];
        let mut gy = vec![0.0f64; glines * gpix];
        let mut gz = vec![0.0f64; glines * gpix];
        for gl in 0..glines {
            // Lattice points may extend past the raster edge; the orbit and
            // swath geometry extrapolate smoothly, which keeps the cell
            // spacing uniform (clamping would skew edge interpolation).
            let line = gl * GEO_STEP;
            let t = t0 + line as f64 * line_dt;
            for gp in 0..gpix {
                let px_full = gp * GEO_STEP;
                // Map full-resolution pixel index into the instrument's
                // 1354-pixel scan so reduced rasters still span the swath.
                let k = px_full * geom.pixels_per_line / dims.pixels;
                let p = geom.pixel(t, k);
                let (la, lo) = (p.lat_rad(), p.lon_rad());
                let g = gl * gpix + gp;
                gx[g] = la.cos() * lo.cos();
                gy[g] = la.cos() * lo.sin();
                gz[g] = la.sin();
            }
        }
        GeoLattice {
            glines,
            gpix,
            gx,
            gy,
            gz,
        }
    }
}

/// Scan lines per parallel fill band: small enough that a full granule's
/// 2030 lines split evenly over the workers, large enough that each band
/// amortises its cursors' cold start.
const BAND_LINES: usize = 32;

/// Geolocation lattice spacing in pixels (the real MOD03 uses 5 km).
const GEO_STEP: usize = 16;

/// Geolocation on a coarse lattice, interpolated per pixel through 3-D
/// unit vectors.
struct GeoLattice {
    glines: usize,
    gpix: usize,
    gx: Vec<f64>,
    gy: Vec<f64>,
    gz: Vec<f64>,
}

impl GeoLattice {
    /// Latitude and longitude (degrees) of `(line, px)`: bilinear
    /// interpolation of the lattice's unit vectors, renormalised.
    fn pixel(&self, line: usize, px: usize) -> (f32, f32) {
        let gpix = self.gpix;
        let gl = line / GEO_STEP;
        let fl = (line % GEO_STEP) as f64 / GEO_STEP as f64;
        let gl1 = (gl + 1).min(self.glines - 1);
        let gp = px / GEO_STEP;
        let fp = (px % GEO_STEP) as f64 / GEO_STEP as f64;
        let gp1 = (gp + 1).min(gpix - 1);
        let i00 = gl * gpix + gp;
        let i01 = gl * gpix + gp1;
        let i10 = gl1 * gpix + gp;
        let i11 = gl1 * gpix + gp1;
        let bilerp = |v: &[f64]| -> f64 {
            let a = v[i00] * (1.0 - fp) + v[i01] * fp;
            let b = v[i10] * (1.0 - fp) + v[i11] * fp;
            a * (1.0 - fl) + b * fl
        };
        let (x, y, z) = (bilerp(&self.gx), bilerp(&self.gy), bilerp(&self.gz));
        let norm = (x * x + y * y + z * z).sqrt().max(1e-12);
        (
            (z / norm).asin().to_degrees() as f32,
            y.atan2(x).to_degrees() as f32,
        )
    }
}

/// A run of whole scan lines of every output field, borrowed from the
/// swath's buffers (`radiance` holds one slice per band plane).
struct SwathRows<'a> {
    lat: &'a mut [f32],
    lon: &'a mut [f32],
    land: &'a mut [u8],
    cloud: &'a mut [u8],
    cot: &'a mut [f32],
    ctp: &'a mut [f32],
    cer: &'a mut [f32],
    radiance: Vec<&'a mut [f32]>,
}

impl<'a> SwathRows<'a> {
    /// Split every field at pixel `k`.
    fn split_at(self, k: usize) -> (Self, Self) {
        let (lat, lat1) = self.lat.split_at_mut(k);
        let (lon, lon1) = self.lon.split_at_mut(k);
        let (land, land1) = self.land.split_at_mut(k);
        let (cloud, cloud1) = self.cloud.split_at_mut(k);
        let (cot, cot1) = self.cot.split_at_mut(k);
        let (ctp, ctp1) = self.ctp.split_at_mut(k);
        let (cer, cer1) = self.cer.split_at_mut(k);
        let (radiance, radiance1) = self.radiance.into_iter().map(|p| p.split_at_mut(k)).unzip();
        (
            SwathRows {
                lat,
                lon,
                land,
                cloud,
                cot,
                ctp,
                cer,
                radiance,
            },
            SwathRows {
                lat: lat1,
                lon: lon1,
                land: land1,
                cloud: cloud1,
                cot: cot1,
                ctp: ctp1,
                cer: cer1,
                radiance: radiance1,
            },
        )
    }
}

/// What every row of one granule shares.
struct Scene<'a> {
    synth: &'a SwathSynthesizer,
    geo: &'a GeoLattice,
    bands: &'a [u8],
    day: bool,
    along0: f64,
}

impl Scene<'_> {
    /// Fill `rows`, whose first scan line is `first_line`.
    fn fill(&self, first_line: usize, mut rows: SwathRows<'_>) {
        let sy = self.synth;
        let pixels = sy.dims.pixels;
        let scale = 1.0 / 96.0; // structures of ~100 km, like real cloud decks
        let mut landmask = sy.landmask.cursor();
        let mut cloud_field = sy.cloud_field.cursor();
        let mut cot_field = sy.cot_field.cursor();
        let mut ctp_field = sy.ctp_field.cursor();
        let mut cer_field = sy.cer_field.cursor();
        for i in 0..rows.lat.len() {
            let (line, px) = (first_line + i / pixels, i % pixels);
            let (lat, lon) = self.geo.pixel(line, px);
            rows.lat[i] = lat;
            rows.lon[i] = lon;
            let land = landmask.is_land(&LatLon::new(lat as f64, lon as f64));
            rows.land[i] = land as u8;

            // Cloud fields in along-track/cross-track coordinates.
            let y = (self.along0 + line as f64) * scale;
            let x = px as f64 * scale;
            let cf = cloud_field.sample(x, y);
            // Latitude climatology: cloudier at the ITCZ (0°) and the
            // mid-latitude storm tracks (±55°), drier in the subtropics.
            let latr = (lat as f64).to_radians();
            let climo = 0.52 + 0.13 * (2.0 * latr).cos().powi(2)
                - 0.12 * (latr.abs().to_degrees() / 90.0 - 0.3).powi(2);
            let threshold = 1.0 - climo.clamp(0.25, 0.75);
            let cloudy = cf > threshold;
            if cloudy {
                rows.cloud[i] = 1;
                let strength = ((cf - threshold) / (1.0 - threshold)).clamp(0.0, 1.0);
                rows.cot[i] = (strength as f32).powi(2) * 60.0
                    + 3.0 * cot_field.sample(x * 2.0, y * 2.0) as f32;
                // Thicker clouds reach higher (lower pressure).
                rows.ctp[i] = 950.0
                    - 650.0 * strength as f32
                    - 100.0 * ctp_field.sample(x * 1.5, y * 1.5) as f32;
                rows.cer[i] = 6.0 + 28.0 * cer_field.sample(x * 3.0, y * 3.0) as f32;
            }

            // Radiances for the 6 AICCA bands. Reflective bands need
            // sunlight and hold the fill value at night.
            let (tau, ctp) = (rows.cot[i], rows.ctp[i]);
            let reflectance = self.day.then(|| reflectance(cloudy, land, tau));
            let temperature = brightness_temperature(cloudy, land, lat, tau, ctp);
            for (plane, &band) in rows.radiance.iter_mut().zip(self.bands) {
                plane[i] = if is_reflective_band(band) {
                    let band_gain = if band == 6 { 1.0 } else { 0.8 };
                    reflectance.map_or(RADIANCE_FILL, |r| band_gain * r)
                } else {
                    let band_offset = (band as f32 - 28.0) * 0.4;
                    temperature + band_offset
                };
            }
        }
    }
}

/// Reflectance-like signal of a pixel, before the per-band gain: surface
/// albedo plus cloud albedo 1 − e^(−τ/10).
fn reflectance(cloudy: bool, land: bool, tau: f32) -> f32 {
    let surf = if land { 0.25 } else { 0.05 };
    let cloud_albedo = if cloudy {
        0.75 * (1.0 - (-tau / 10.0).exp())
    } else {
        0.0
    };
    surf + cloud_albedo * (1.0 - surf)
}

/// Brightness-temperature-like signal of a pixel (K), before the per-band
/// offset: warm surface, cold cloud tops.
fn brightness_temperature(cloudy: bool, land: bool, lat: f32, tau: f32, ctp: f32) -> f32 {
    let latr = (lat as f64).to_radians();
    let tsurf = 300.0 - 45.0 * latr.sin().powi(2) as f32 + if land { 3.0 } else { 0.0 };
    if cloudy {
        // Cloud-top temperature from pressure: ~200 K at 300 hPa up to
        // ~285 K at 950 hPa.
        let tc = 160.0 + 0.13 * ctp;
        let emis = (1.0 - (-tau / 5.0).exp()).clamp(0.0, 1.0);
        tsurf * (1.0 - emis) + tc * emis
    } else {
        tsurf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::product::Platform;
    use eoml_util::timebase::CivilDate;

    fn synth() -> SwathSynthesizer {
        SwathSynthesizer::new(2022, SwathDims::small())
    }

    fn gid(slot: u16) -> GranuleId {
        GranuleId::new(Platform::Terra, CivilDate::new(2022, 1, 1).unwrap(), slot)
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = synth().synthesize(gid(100));
        let b = synth().synthesize(gid(100));
        assert_eq!(a.radiance, b.radiance);
        assert_eq!(a.cloud, b.cloud);
        assert_eq!(a.lat, b.lat);
    }

    #[test]
    fn synthesis_is_identical_on_one_and_two_threads() {
        // Odd dims leave a partial last band and a partial geolocation cell.
        for dims in [
            SwathDims::small(),
            SwathDims {
                lines: 75,
                pixels: 33,
            },
        ] {
            let sy = SwathSynthesizer::new(2022, dims);
            for slot in [0, 3] {
                let on = |threads: usize| {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .expect("pool");
                    pool.install(|| sy.synthesize(gid(slot)))
                };
                let (one, two) = (on(1), on(2));
                assert_eq!(one.radiance, two.radiance);
                assert_eq!((one.lat, one.lon), (two.lat, two.lon));
                assert_eq!((one.land, one.cloud), (two.land, two.cloud));
                assert_eq!((one.cot, one.ctp, one.cer), (two.cot, two.ctp, two.cer));
                assert_eq!(one.day, two.day);
            }
        }
    }

    #[test]
    fn different_granules_differ() {
        let a = synth().synthesize(gid(10));
        let b = synth().synthesize(gid(150));
        assert_ne!(a.lat, b.lat);
        assert_ne!(a.cloud, b.cloud);
    }

    #[test]
    fn dims_and_lengths_consistent() {
        let s = synth().synthesize(gid(7));
        let n = s.dims.len();
        assert_eq!(n, 256 * 256);
        assert_eq!(s.lat.len(), n);
        assert_eq!(s.lon.len(), n);
        assert_eq!(s.land.len(), n);
        assert_eq!(s.cloud.len(), n);
        assert_eq!(s.cot.len(), n);
        assert_eq!(s.radiance.len(), 6 * n);
        assert_eq!(s.bands, AICCA_BANDS.to_vec());
    }

    #[test]
    fn geolocation_is_plausible() {
        let s = synth().synthesize(gid(42));
        for i in 0..s.dims.len() {
            assert!((-90.0..=90.0).contains(&s.lat[i]), "lat {}", s.lat[i]);
            assert!((-180.0..=180.0).contains(&s.lon[i]), "lon {}", s.lon[i]);
        }
        // Neighbouring pixels are ≲ a few km apart → ≤ ~0.25° unless near
        // the antimeridian.
        let dims = s.dims;
        for line in 0..dims.lines - 1 {
            for px in 0..dims.pixels - 1 {
                let i = dims.idx(line, px);
                let j = dims.idx(line, px + 1);
                let dlat = (s.lat[i] - s.lat[j]).abs();
                assert!(dlat < 0.5, "lat jump {dlat} at ({line},{px})");
            }
        }
    }

    #[test]
    fn interpolated_geolocation_matches_direct() {
        // Interpolation error vs direct orbital computation should be tiny
        // (well under a pixel).
        let sy = synth();
        let id = gid(88);
        let s = sy.synthesize(id);
        let geom = SwathGeometry::modis_1km(SunSyncOrbit::new(OrbitParams::terra()));
        let t0 = id.orbit_time_s();
        let line_dt = geom.line_period_s();
        for &(line, px) in &[(5usize, 9usize), (100, 200), (200, 30), (255, 255)] {
            let t = t0 + line as f64 * line_dt;
            let k = px * geom.pixels_per_line / s.dims.pixels;
            let direct = geom.pixel(t, k);
            let i = s.dims.idx(line, px);
            let interp = LatLon::new(s.lat[i] as f64, s.lon[i] as f64);
            let err = direct.distance_km(&interp);
            assert!(err < 3.0, "interp error {err} km at ({line},{px})");
        }
    }

    #[test]
    fn cloud_fraction_is_moderate() {
        // Across many granules the mean cloud fraction should be earth-like
        // (~0.5 give or take) — neither clear-sky nor overcast everywhere.
        let sy = synth();
        let mean: f64 = (0..12)
            .map(|k| sy.synthesize(gid(k * 20)).cloud_fraction())
            .sum::<f64>()
            / 12.0;
        assert!((0.25..=0.8).contains(&mean), "mean cloud fraction {mean}");
    }

    #[test]
    fn cloud_products_zero_where_clear() {
        let s = synth().synthesize(gid(3));
        for i in 0..s.dims.len() {
            if s.cloud[i] == 0 {
                assert_eq!(s.cot[i], 0.0);
                assert_eq!(s.ctp[i], 0.0);
                assert_eq!(s.cer[i], 0.0);
            } else {
                assert!(s.cot[i] >= 0.0);
                assert!((150.0..=1000.0).contains(&s.ctp[i]), "ctp {}", s.ctp[i]);
                assert!((4.0..=40.0).contains(&s.cer[i]), "cer {}", s.cer[i]);
            }
        }
    }

    #[test]
    fn night_granules_have_fill_in_reflective_bands() {
        let sy = synth();
        // Find one day and one night granule.
        let mut day_seen = false;
        let mut night_seen = false;
        for slot in 0..288 {
            let s = sy.synthesize(gid(slot));
            let b6 = s.band_plane(0); // band 6, reflective
            let b31 = s.band_plane(5); // band 31, thermal
            if s.day {
                day_seen = true;
                assert!(b6.iter().all(|&v| v != RADIANCE_FILL));
            } else {
                night_seen = true;
                assert!(b6.iter().all(|&v| v == RADIANCE_FILL));
            }
            // Thermal bands always valid and in brightness-temp range.
            assert!(b31.iter().all(|&v| (150.0..=330.0).contains(&v)));
            if day_seen && night_seen {
                return;
            }
        }
        panic!("day_seen={day_seen} night_seen={night_seen}: need both in a day");
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn thermal_radiance_colder_over_thick_cloud() {
        let sy = synth();
        // Average band-31 brightness temperature over thick-cloud pixels
        // must be colder than over clear pixels (that's the physics the
        // tile classifier keys on).
        let mut cold = (0.0f64, 0u32);
        let mut clear = (0.0f64, 0u32);
        for slot in [0, 40, 80, 120] {
            let s = sy.synthesize(gid(slot));
            let b31 = s.band_plane(5);
            for i in 0..s.dims.len() {
                if s.cloud[i] == 1 && s.cot[i] > 20.0 {
                    cold.0 += b31[i] as f64;
                    cold.1 += 1;
                } else if s.cloud[i] == 0 {
                    clear.0 += b31[i] as f64;
                    clear.1 += 1;
                }
            }
        }
        assert!(cold.1 > 100 && clear.1 > 100, "need both populations");
        let tc = cold.0 / cold.1 as f64;
        let ts = clear.0 / clear.1 as f64;
        assert!(tc < ts - 15.0, "thick cloud {tc} K vs clear {ts} K");
    }

    #[test]
    fn land_ocean_fractions_vary_by_granule() {
        let sy = synth();
        let fracs: Vec<f64> = (0..10)
            .map(|k| sy.synthesize(gid(k * 28)).ocean_fraction())
            .collect();
        let min = fracs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = fracs.iter().cloned().fold(0.0, f64::max);
        assert!(max - min > 0.05, "ocean fraction should vary: {fracs:?}");
    }

    #[test]
    fn cloud_mask_is_spatially_coherent() {
        // Cloud decks are ~100 km structures, so neighbouring scan lines
        // must agree almost everywhere — uncorrelated per-pixel masks would
        // make the ≥30 % tile filter meaningless.
        let s = synth().synthesize(gid(60));
        let dims = s.dims;
        let mut agree = 0u64;
        let mut total = 0u64;
        for line in 0..dims.lines - 1 {
            for px in 0..dims.pixels {
                if s.cloud[dims.idx(line, px)] == s.cloud[dims.idx(line + 1, px)] {
                    agree += 1;
                }
                total += 1;
            }
        }
        let coherence = agree as f64 / total as f64;
        assert!(coherence > 0.9, "line-to-line agreement {coherence}");
    }
}

//! Lattice value noise and fractional Brownian motion (fBm).
//!
//! The synthetic MODIS generator uses these to produce spatially coherent
//! cloud-optical-thickness fields and a procedural land mask. Everything is
//! seeded and stateless (lattice values are hashed from integer coordinates),
//! so a granule's pixel field is reproducible from `(seed, granule index)`
//! without storing any state. [`FbmCursor`] only memoises lattice values
//! for scan-line sweeps; it returns the same bits as [`Fbm::sample`].

use crate::rng::SplitMix64;

/// Deterministic 2-D value noise: bilinear interpolation (with smoothstep
/// fade) of pseudo-random values on an integer lattice.
#[derive(Debug, Clone, Copy)]
pub struct ValueNoise {
    seed: u64,
}

impl ValueNoise {
    /// Noise field identified by `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Pseudo-random value in `[0, 1)` at integer lattice point `(ix, iy)`.
    fn lattice(&self, ix: i64, iy: i64) -> f64 {
        let h = SplitMix64::mix(
            self.seed
                ^ (ix as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (iy as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
        );
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Smoothstep fade `3t² − 2t³` — C¹-continuous across cell boundaries.
    fn fade(t: f64) -> f64 {
        t * t * (3.0 - 2.0 * t)
    }

    /// Lattice values at the four corners of cell `(ix, iy)`, in the order
    /// `[v00, v10, v01, v11]`.
    fn corners(&self, ix: i64, iy: i64) -> [f64; 4] {
        [
            self.lattice(ix, iy),
            self.lattice(ix + 1, iy),
            self.lattice(ix, iy + 1),
            self.lattice(ix + 1, iy + 1),
        ]
    }

    /// Interpolate a cell's corner values at offset `(fx, fy)` in the cell.
    fn blend([v00, v10, v01, v11]: [f64; 4], fx: f64, fy: f64) -> f64 {
        let u = Self::fade(fx);
        let v = Self::fade(fy);
        let a = v00 * (1.0 - u) + v10 * u;
        let b = v01 * (1.0 - u) + v11 * u;
        a * (1.0 - v) + b * v
    }

    /// Sample the noise at continuous coordinates; output in `[0, 1)`.
    pub fn sample(&self, x: f64, y: f64) -> f64 {
        let ix = floor_i64(x);
        let iy = floor_i64(y);
        Self::blend(self.corners(ix, iy), x - ix as f64, y - iy as f64)
    }
}

/// `x.floor() as i64` without calling `f64::floor`, which is a libm call
/// on x86-64 targets without SSE4.1: truncate, then step down where
/// truncation rounded a negative non-integer up. Equal to
/// `x.floor() as i64` for every `f64`, saturation and NaN → 0 included.
#[inline]
pub fn floor_i64(x: f64) -> i64 {
    let t = x as i64;
    // Only `t == i64::MIN` with `x < -2⁶³` can step past the range; the
    // saturating step keeps the saturated cast's answer there.
    t.saturating_sub((x < t as f64) as i64)
}

/// Fractional Brownian motion: a sum of `octaves` value-noise fields with
/// geometrically increasing frequency (`lacunarity`) and decreasing amplitude
/// (`gain`). Produces the multi-scale texture characteristic of cloud fields.
#[derive(Debug, Clone, Copy)]
pub struct Fbm {
    base: ValueNoise,
    /// Number of octaves summed.
    pub octaves: u32,
    /// Frequency multiplier between octaves (typically 2).
    pub lacunarity: f64,
    /// Amplitude multiplier between octaves (typically 0.5).
    pub gain: f64,
}

impl Fbm {
    /// Standard fBm with lacunarity 2 and gain 0.5.
    pub fn new(seed: u64, octaves: u32) -> Self {
        Self {
            base: ValueNoise::new(seed),
            octaves,
            lacunarity: 2.0,
            gain: 0.5,
        }
    }

    /// fBm with explicit lacunarity/gain.
    pub fn with_params(seed: u64, octaves: u32, lacunarity: f64, gain: f64) -> Self {
        Self {
            base: ValueNoise::new(seed),
            octaves,
            lacunarity,
            gain,
        }
    }

    /// Sample; output normalized to `[0, 1)` regardless of octave count.
    pub fn sample(&self, x: f64, y: f64) -> f64 {
        self.octave_sum(x, y, |_, u, v| self.base.sample(u, v))
    }

    /// A memoising sampler over this field for sweeps of nearby points
    /// (scan lines); see [`FbmCursor`].
    pub fn cursor(&self) -> FbmCursor<'_> {
        FbmCursor {
            fbm: self,
            cells: vec![CellCache::default(); self.octaves as usize],
        }
    }

    /// The octave sum, with octave `oct`'s noise at `(u, v)` supplied by
    /// `noise(oct, u, v)`.
    fn octave_sum(&self, x: f64, y: f64, mut noise: impl FnMut(usize, f64, f64) -> f64) -> f64 {
        let mut sum = 0.0;
        let mut amp = 1.0;
        let mut freq = 1.0;
        let mut norm = 0.0;
        for oct in 0..self.octaves {
            // Offset each octave so lattice artifacts don't align.
            let off = oct as f64 * 137.31;
            sum += amp * noise(oct as usize, x * freq + off, y * freq - off);
            norm += amp;
            amp *= self.gain;
            freq *= self.lacunarity;
        }
        sum / norm
    }

    /// Sample mapped through a ridge transform (`1 − |2n − 1|`), giving
    /// filament-like structures used for cirrus-type cloud textures.
    pub fn ridged(&self, x: f64, y: f64) -> f64 {
        let n = self.sample(x, y);
        1.0 - (2.0 * n - 1.0).abs()
    }
}

/// Memoising [`Fbm`] sampler: keeps the last lattice cell's four corner
/// values per octave and reuses them while successive samples stay in that
/// cell, which along a scan line they mostly do. Returns exactly what
/// [`Fbm::sample`] returns for every point, in any order.
#[derive(Debug, Clone)]
pub struct FbmCursor<'a> {
    fbm: &'a Fbm,
    cells: Vec<CellCache>,
}

impl FbmCursor<'_> {
    /// Sample the field at `(x, y)`; bit-identical to [`Fbm::sample`].
    pub fn sample(&mut self, x: f64, y: f64) -> f64 {
        let (fbm, cells) = (self.fbm, &mut self.cells);
        fbm.octave_sum(x, y, |oct, u, v| cells[oct].sample(&fbm.base, u, v))
    }
}

/// One octave's most recent lattice cell and its corner values.
#[derive(Debug, Clone, Copy, Default)]
struct CellCache {
    cell: Option<(i64, i64)>,
    corners: [f64; 4],
}

impl CellCache {
    fn sample(&mut self, noise: &ValueNoise, x: f64, y: f64) -> f64 {
        let ix = floor_i64(x);
        let iy = floor_i64(y);
        if self.cell != Some((ix, iy)) {
            self.cell = Some((ix, iy));
            self.corners = noise.corners(ix, iy);
        }
        ValueNoise::blend(self.corners, x - ix as f64, y - iy as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn noise_is_deterministic() {
        let n1 = ValueNoise::new(99);
        let n2 = ValueNoise::new(99);
        for i in 0..50 {
            let x = i as f64 * 0.37;
            let y = i as f64 * 0.11;
            assert_eq!(n1.sample(x, y), n2.sample(x, y));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let n1 = ValueNoise::new(1);
        let n2 = ValueNoise::new(2);
        let diffs = (0..100)
            .filter(|&i| {
                let x = i as f64 * 0.7;
                (n1.sample(x, x * 0.3) - n2.sample(x, x * 0.3)).abs() > 1e-9
            })
            .count();
        assert!(diffs > 90);
    }

    #[test]
    fn noise_in_unit_range() {
        let n = ValueNoise::new(5);
        for i in 0..40 {
            for j in 0..40 {
                let v = n.sample(i as f64 * 0.23 - 3.0, j as f64 * 0.31 - 5.0);
                assert!((0.0..1.0).contains(&v), "v={v}");
            }
        }
    }

    #[test]
    fn noise_matches_lattice_at_integers() {
        // At integer coordinates, bilinear interpolation reduces to the
        // lattice value, so sampling must be exactly reproducible there too.
        let n = ValueNoise::new(7);
        let a = n.sample(3.0, 4.0);
        let b = n.sample(3.0, 4.0);
        assert_eq!(a, b);
    }

    #[test]
    fn noise_is_continuous() {
        // Values at nearby points should be close (continuity ⇒ spatial
        // coherence, the property the cloud fields rely on).
        let n = ValueNoise::new(11);
        let eps = 1e-4;
        for i in 0..20 {
            let x = i as f64 * 0.618 + 0.123;
            let y = i as f64 * 0.414 + 0.456;
            let d = (n.sample(x, y) - n.sample(x + eps, y + eps)).abs();
            assert!(d < 0.01, "noise jump {d} at ({x},{y})");
        }
    }

    #[test]
    fn fbm_in_unit_range_and_rougher_with_octaves() {
        let smooth = Fbm::new(3, 1);
        // High gain keeps the upper octaves' amplitude large, so the extra
        // octaves must dominate the increment energy.
        let rough = Fbm::with_params(3, 6, 2.0, 0.9);
        let mut smooth_var = 0.0;
        let mut rough_var = 0.0;
        let mut prev_s = smooth.sample(0.0, 0.0);
        let mut prev_r = rough.sample(0.0, 0.0);
        // Small lag so the single-octave increments shrink ~quadratically
        // while the high-frequency octaves keep contributing energy.
        for i in 1..2000 {
            let x = i as f64 * 0.005;
            let s = smooth.sample(x, 0.0);
            let r = rough.sample(x, 0.0);
            assert!((0.0..1.0).contains(&s));
            assert!((0.0..1.0).contains(&r));
            smooth_var += (s - prev_s).powi(2);
            rough_var += (r - prev_r).powi(2);
            prev_s = s;
            prev_r = r;
        }
        assert!(
            rough_var > smooth_var,
            "more octaves should add high-frequency energy ({rough_var} vs {smooth_var})"
        );
    }

    #[test]
    fn ridged_in_range() {
        let f = Fbm::new(8, 4);
        for i in 0..100 {
            let v = f.ridged(i as f64 * 0.13, i as f64 * 0.07);
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn floor_i64_matches_std_floor_at_the_edges() {
        let edges = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            -1.0 - f64::EPSILON,
            2.0f64.powi(52) + 0.5,
            -(2.0f64.powi(52)) - 0.5,
            i64::MAX as f64,
            i64::MIN as f64,
            // Neighbours of ±2⁶³ in both directions.
            f64::from_bits((i64::MAX as f64).to_bits() - 1),
            f64::from_bits((i64::MAX as f64).to_bits() + 1),
            f64::from_bits((i64::MIN as f64).to_bits() - 1),
            f64::from_bits((i64::MIN as f64).to_bits() + 1),
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            -5e-324,
        ];
        for x in edges {
            assert_eq!(floor_i64(x), x.floor() as i64, "x = {x:e}");
        }
        for k in -1000..1000 {
            let x = k as f64 * 0.25;
            assert_eq!(floor_i64(x), x.floor() as i64, "x = {x}");
        }
    }

    /// A sweep of `n` points from `(x0, y0)` with steps `(dx, dy)`.
    fn sweep(x0: f64, y0: f64, dx: f64, dy: f64, n: usize) -> impl Iterator<Item = (f64, f64)> {
        (0..n).map(move |i| (x0 + i as f64 * dx, y0 + i as f64 * dy))
    }

    proptest! {
        #[test]
        fn floor_i64_matches_std_floor_for_any_bits(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assert_eq!(floor_i64(x), x.floor() as i64);
        }

        #[test]
        fn cursor_is_bit_identical_to_sample(
            seed in any::<u64>(),
            octaves in 1u32..7,
            x0 in -300.0f64..300.0,
            y0 in -300.0f64..300.0,
            dx in -0.3f64..0.3,
            dy in -0.05f64..0.05,
        ) {
            // Sweeps cross many cell edges at every octave, on both sides
            // of zero; a second sweep reuses the warm cursor.
            let f = Fbm::new(seed, octaves);
            let mut c = f.cursor();
            for (x, y) in sweep(x0, y0, dx, dy, 400).chain(sweep(-x0, y0, -dx, dy, 50)) {
                prop_assert_eq!(c.sample(x, y).to_bits(), f.sample(x, y).to_bits());
            }
        }
    }
}

//! Granule identity and naming.
//!
//! MODIS observations are binned into 5-minute *granules* (scenes); a day
//! holds 288 slots. LAADS names files
//! `<SHORTNAME>.A<YYYY><DDD>.<HHMM>.<collection>.<production>.hdf`; we keep
//! the convention (with an `.eogr` extension for our container) so that the
//! download/preprocess stages exercise realistic name parsing.

use crate::product::{Platform, ProductKind};
use eoml_util::timebase::{CivilDate, UtcTime};
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// Number of 5-minute granule slots in a day.
pub const SLOTS_PER_DAY: u16 = 288;

/// Collection (processing version) used in filenames; 061 is the current
/// MODIS collection.
pub const COLLECTION: &str = "061";

/// Identity of one 5-minute granule: platform + date + slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GranuleId {
    /// Host platform.
    pub platform: Platform,
    /// Acquisition date (UTC).
    pub date: CivilDate,
    /// 5-minute slot within the day, `0..288`.
    pub slot: u16,
}

impl GranuleId {
    /// Construct; panics if `slot >= 288`.
    pub fn new(platform: Platform, date: CivilDate, slot: u16) -> Self {
        assert!(slot < SLOTS_PER_DAY, "slot {slot} out of range");
        Self {
            platform,
            date,
            slot,
        }
    }

    /// Acquisition start time (UTC).
    pub fn start_time(&self) -> UtcTime {
        UtcTime::from_date(self.date) + Duration::from_secs(self.slot as u64 * 300)
    }

    /// `HHMM` string of the slot start.
    pub fn hhmm(&self) -> String {
        let mins = self.slot as u32 * 5;
        format!("{:02}{:02}", mins / 60, mins % 60)
    }

    /// Seconds since the platform's epoch-of-day 0 — used by the
    /// synthesizer to phase the orbit (continuous across days).
    pub fn orbit_time_s(&self) -> f64 {
        self.date.days_from_epoch() as f64 * 86_400.0 + self.slot as f64 * 300.0
    }

    /// LAADS-convention file name for `product` of this granule.
    /// Example: `MOD021KM.A2022001.0005.061.2022003141500.eogr`.
    pub fn file_name(&self, product: ProductKind) -> String {
        // Production timestamp: deterministic fiction two days after
        // acquisition, as LAADS production lags acquisition.
        let prod_date = CivilDate::from_days_from_epoch(self.date.days_from_epoch() + 2);
        format!(
            "{}.A{:04}{:03}.{}.{}.{:04}{:03}141500.eogr",
            product.short_name(self.platform),
            self.date.year(),
            self.date.ordinal(),
            self.hhmm(),
            COLLECTION,
            prod_date.year(),
            prod_date.ordinal(),
        )
    }

    /// Parse a file name produced by [`file_name`](Self::file_name).
    /// Returns the id and the product kind.
    pub fn parse_file_name(name: &str) -> Option<(GranuleId, ProductKind)> {
        let mut parts = name.split('.');
        let (kind, platform) = ProductKind::parse_short_name(parts.next()?)?;
        let (date, slot) = parse_date_slot(parts.next()?, parts.next()?)?;
        Some((GranuleId::new(platform, date, slot), kind))
    }

    /// All granules of a day in slot order.
    pub fn day_granules(platform: Platform, date: CivilDate) -> impl Iterator<Item = GranuleId> {
        (0..SLOTS_PER_DAY).map(move |slot| GranuleId::new(platform, date, slot))
    }
}

impl fmt::Display for GranuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.A{:04}{:03}.{}",
            self.platform.prefix(),
            self.date.year(),
            self.date.ordinal(),
            self.hhmm()
        )
    }
}

/// Why a string is not a granule display id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGranuleIdError;

impl fmt::Display for ParseGranuleIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("not a granule id of the form {MOD|MYD}.A<YYYY><DDD>.<HHMM>")
    }
}

impl std::error::Error for ParseGranuleIdError {}

/// The inverse of `Display`: parses `MOD.A2022001.0005`.
impl FromStr for GranuleId {
    type Err = ParseGranuleIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('.');
        let platform = match parts.next() {
            Some("MOD") => Platform::Terra,
            Some("MYD") => Platform::Aqua,
            _ => return Err(ParseGranuleIdError),
        };
        let (date, slot) = parts
            .next()
            .zip(parts.next())
            .and_then(|(adate, hhmm)| parse_date_slot(adate, hhmm))
            .filter(|_| parts.next().is_none())
            .ok_or(ParseGranuleIdError)?;
        Ok(GranuleId::new(platform, date, slot))
    }
}

/// The `A<YYYY><DDD>` and `<HHMM>` fields shared by file names and display
/// ids: a valid ordinal date and a slot start (`hh < 24`, `mm` a multiple
/// of 5 below 60).
fn parse_date_slot(adate: &str, hhmm: &str) -> Option<(CivilDate, u16)> {
    let digits = |s: &str| s.bytes().all(|b| b.is_ascii_digit());
    let ymd = adate
        .strip_prefix('A')
        .filter(|d| d.len() == 7 && digits(d))?;
    if hhmm.len() != 4 || !digits(hhmm) {
        return None;
    }
    let date = CivilDate::from_ordinal(ymd[..4].parse().ok()?, ymd[4..].parse().ok()?)?;
    let (hh, mm): (u16, u16) = (hhmm[..2].parse().ok()?, hhmm[2..].parse().ok()?);
    if !mm.is_multiple_of(5) || hh >= 24 || mm >= 60 {
        return None;
    }
    Some((date, hh * 12 + mm / 5))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day1() -> CivilDate {
        CivilDate::new(2022, 1, 1).unwrap()
    }

    #[test]
    fn slot_times() {
        let g = GranuleId::new(Platform::Terra, day1(), 0);
        assert_eq!(g.start_time().iso8601(), "2022-01-01T00:00:00Z");
        assert_eq!(g.hhmm(), "0000");
        let g = GranuleId::new(Platform::Terra, day1(), 1);
        assert_eq!(g.hhmm(), "0005");
        let g = GranuleId::new(Platform::Terra, day1(), 287);
        assert_eq!(g.hhmm(), "2355");
        assert_eq!(g.start_time().iso8601(), "2022-01-01T23:55:00Z");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_288_panics() {
        GranuleId::new(Platform::Terra, day1(), 288);
    }

    #[test]
    fn file_name_convention() {
        let g = GranuleId::new(Platform::Terra, day1(), 1);
        let name = g.file_name(ProductKind::Mod02);
        assert!(
            name.starts_with("MOD021KM.A2022001.0005.061."),
            "bad name {name}"
        );
        assert!(name.ends_with(".eogr"));
        let name3 = g.file_name(ProductKind::Mod03);
        assert!(name3.starts_with("MOD03.A2022001.0005."));
    }

    #[test]
    fn file_name_round_trip() {
        for slot in [0, 1, 100, 287] {
            for product in ProductKind::all() {
                for platform in Platform::all() {
                    let g = GranuleId::new(platform, day1(), slot);
                    let name = g.file_name(product);
                    let (parsed, kind) = GranuleId::parse_file_name(&name)
                        .unwrap_or_else(|| panic!("failed to parse {name}"));
                    assert_eq!(parsed, g);
                    assert_eq!(kind, product);
                }
            }
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(GranuleId::parse_file_name("garbage").is_none());
        assert!(GranuleId::parse_file_name("MOD021KM.2022001.0005.061.x.eogr").is_none());
        assert!(GranuleId::parse_file_name("MOD021KM.A2022400.0005.061.x.eogr").is_none());
        assert!(GranuleId::parse_file_name("MOD021KM.A2022001.0007.061.x.eogr").is_none());
        assert!(GranuleId::parse_file_name("MOD021KM.A2022001.2500.061.x.eogr").is_none());
    }

    #[test]
    fn day_granules_covers_day() {
        let all: Vec<_> = GranuleId::day_granules(Platform::Aqua, day1()).collect();
        assert_eq!(all.len(), 288);
        assert_eq!(all[0].hhmm(), "0000");
        assert_eq!(all[287].hhmm(), "2355");
        // Unique and sorted.
        for w in all.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn orbit_time_continuous_across_days() {
        let g1 = GranuleId::new(Platform::Terra, day1(), 287);
        let g2 = GranuleId::new(Platform::Terra, day1().succ(), 0);
        assert!((g2.orbit_time_s() - g1.orbit_time_s() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn display_compact() {
        let g = GranuleId::new(Platform::Aqua, day1(), 130);
        assert_eq!(g.to_string(), "MYD.A2022001.1050");
    }

    #[test]
    fn from_str_rejects_malformed() {
        for bad in [
            "",
            "MOD",
            "MOD.A2022001",
            "MOD.A2022001.2400",
            "MOD.A2022001.0003",
            "MOD.A2022001.0060",
            "MOD.X2022001.0005",
            "MOD.A2022400.0005",
            "MOD.A+022001.0005",
            "MOD.A2022001.0005.nc",
            "MOE.A2022001.0005",
            "MOD.A2022\u{e9}1.0005",
        ] {
            assert_eq!(bad.parse::<GranuleId>(), Err(ParseGranuleIdError), "{bad}");
        }
    }

    proptest::proptest! {
        #[test]
        fn display_from_str_round_trip(
            aqua in proptest::prelude::any::<bool>(),
            year in 1990i32..2100,
            doy in 1u16..367,
        ) {
            let platform = if aqua { Platform::Aqua } else { Platform::Terra };
            let Some(date) = CivilDate::from_ordinal(year, doy) else {
                return Ok(());
            };
            for g in GranuleId::day_granules(platform, date) {
                proptest::prop_assert_eq!(g.to_string().parse::<GranuleId>(), Ok(g));
            }
        }
    }
}

//! Shipment manifests — the verifiable paperwork that travels with a
//! cross-facility data shipment.
//!
//! A shipment leaves the source facility as data plus a
//! [`ShipmentManifest`]: per-artifact content digests, the provenance
//! slice that produced each artifact, the originating trace ids, and a
//! digest of the source's compacted journal. The destination checks the
//! shipment against the manifest alone ([`crate::ingest`]) — no callback
//! to the source is needed to detect a missing, extra, or corrupt file.
//!
//! This crate sits *below* `eoml-core`, so the manifest defines its own
//! lineage record shape ([`LineageRecord`], mirroring core's
//! `ProvRecord`) and takes the journal digest as plain numbers; the
//! drivers convert when they build the manifest at shipment time.

use eoml_util::checksum::{fnv1a64, fnv1a64_update, FNV64_PRIME};
use serde_json::{json, Value};

/// FNV-1a 64-bit digest of a byte payload — the content digest used for
/// real artifacts (the on-disk pipeline hashes actual file bytes).
pub fn content_digest(bytes: &[u8]) -> u64 {
    fnv1a64(bytes)
}

/// Deterministic digest for virtual artifacts that have a name and a
/// size but no materialised bytes (the simulated campaigns). Source and
/// destination computing from the same `(name, bytes)` pair agree; a
/// corrupted payload is modelled by perturbing the received digest.
pub fn synthetic_digest(name: &str, bytes: u64) -> u64 {
    fnv1a64_update(fnv1a64(name.as_bytes()), &bytes.to_le_bytes())
}

/// One shipped artifact: name, payload size, content digest, and the
/// granule trace id its spans are stamped with (if any).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactEntry {
    /// Artifact file name.
    pub name: String,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Content digest ([`content_digest`] or [`synthetic_digest`]).
    pub digest: u64,
    /// Originating trace id (granule display form), if the artifact
    /// belongs to a traced pipeline item.
    pub trace_id: Option<String>,
}

/// One provenance record carried in the manifest: `activity` produced
/// `artifact` from `inputs`. Mirrors core's `ProvRecord` without the
/// dependency.
#[derive(Debug, Clone, PartialEq)]
pub struct LineageRecord {
    /// The produced artifact.
    pub artifact: String,
    /// The producing activity (`"download"`, `"preprocess"`, …).
    pub activity: String,
    /// Input artifacts consumed.
    pub inputs: Vec<String>,
    /// The agent that performed the activity.
    pub agent: String,
    /// Virtual/wall seconds when the artifact was produced.
    pub at_s: f64,
}

/// Digest of the source facility's compacted journal at manifest time:
/// `(events, checksum)`. The checksum is over the materialised state, so
/// it is invariant under compaction; the destination uses it to tell a
/// re-ship of the same completed campaign from a different one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalDigest {
    /// Durable events behind the digest.
    pub events: u64,
    /// FNV-1a checksum of the materialised journal state.
    pub checksum: u64,
}

/// The manifest that accompanies one shipment.
#[derive(Debug, Clone, PartialEq)]
pub struct ShipmentManifest {
    /// Source facility (e.g. `"ace-defiant"`).
    pub source: String,
    /// Destination facility (e.g. `"frontier-orion"`).
    pub destination: String,
    /// Shipment completion time at the source, trace seconds.
    pub created_s: f64,
    /// Shipped artifacts with digests.
    pub artifacts: Vec<ArtifactEntry>,
    /// Provenance slice behind the shipped artifacts.
    pub lineage: Vec<LineageRecord>,
    /// Source journal digest, when the shipment ran journaled.
    pub journal: Option<JournalDigest>,
}

impl ShipmentManifest {
    /// Empty manifest between two facilities.
    pub fn new(source: &str, destination: &str, created_s: f64) -> ShipmentManifest {
        ShipmentManifest {
            source: source.to_string(),
            destination: destination.to_string(),
            created_s,
            artifacts: Vec::new(),
            lineage: Vec::new(),
            journal: None,
        }
    }

    /// Stable identity of this manifest: a digest over route, artifact
    /// names/digests, and the journal digest. Two shipments of the same
    /// completed campaign produce the same id — the key ingest
    /// acknowledgements are journaled under, making re-ships idempotent.
    pub fn id(&self) -> String {
        let mut h = content_digest(self.source.as_bytes());
        h ^= content_digest(self.destination.as_bytes());
        for a in &self.artifacts {
            h = h
                .wrapping_mul(FNV64_PRIME)
                .wrapping_add(content_digest(a.name.as_bytes()) ^ a.digest);
        }
        // Only the state checksum feeds the id: the event count shifts
        // under compaction and crash-resume while the completed work
        // (and therefore the shipment identity) does not.
        if let Some(j) = self.journal {
            h ^= j.checksum.rotate_left(17);
        }
        format!("{}-{h:016x}", self.source)
    }

    /// Number of shipped artifacts.
    pub fn len(&self) -> usize {
        self.artifacts.len()
    }

    /// Whether the manifest lists no artifacts.
    pub fn is_empty(&self) -> bool {
        self.artifacts.is_empty()
    }

    /// Total payload bytes across artifacts.
    pub fn total_bytes(&self) -> u64 {
        self.artifacts.iter().map(|a| a.bytes).sum()
    }

    /// The entry for `name`, if shipped.
    pub fn artifact(&self, name: &str) -> Option<&ArtifactEntry> {
        self.artifacts.iter().find(|a| a.name == name)
    }

    /// Deduplicated trace ids across artifacts, sorted.
    pub fn trace_ids(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .artifacts
            .iter()
            .filter_map(|a| a.trace_id.as_deref())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// JSON form (written next to the data, validated by CI).
    pub fn to_json(&self) -> Value {
        json!({
            "id": self.id(),
            "source": self.source,
            "destination": self.destination,
            "created_s": self.created_s,
            "artifacts": self.artifacts.iter().map(|a| json!({
                "name": a.name,
                "bytes": a.bytes,
                "digest": format!("{:016x}", a.digest),
                "trace_id": a.trace_id.clone().map(Value::String).unwrap_or(Value::Null),
            })).collect::<Vec<_>>(),
            "lineage": self.lineage.iter().map(|r| json!({
                "artifact": r.artifact,
                "activity": r.activity,
                "inputs": r.inputs,
                "agent": r.agent,
                "at_s": r.at_s,
            })).collect::<Vec<_>>(),
            "journal": self.journal.map(|j| json!({
                "events": j.events,
                "checksum": format!("{:016x}", j.checksum),
            })).unwrap_or(Value::Null),
        })
    }

    /// Parse the JSON form; `Err` names the offending field.
    pub fn from_json(v: &Value) -> Result<ShipmentManifest, String> {
        let str_field = |v: &Value, k: &str| -> Result<String, String> {
            v[k].as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("manifest: missing '{k}'"))
        };
        let hex64 = |v: &Value, k: &str| -> Result<u64, String> {
            let s = v[k]
                .as_str()
                .ok_or_else(|| format!("manifest: missing '{k}'"))?;
            u64::from_str_radix(s, 16).map_err(|_| format!("manifest: '{k}' is not hex"))
        };
        let mut artifacts = Vec::new();
        for a in v["artifacts"].as_array().ok_or("manifest: no artifacts")? {
            artifacts.push(ArtifactEntry {
                name: str_field(a, "name")?,
                bytes: a["bytes"]
                    .as_u64()
                    .ok_or("manifest: artifact missing 'bytes'")?,
                digest: hex64(a, "digest")?,
                trace_id: a["trace_id"].as_str().map(str::to_string),
            });
        }
        let mut lineage = Vec::new();
        for r in v["lineage"].as_array().map(|a| a.as_slice()).unwrap_or(&[]) {
            lineage.push(LineageRecord {
                artifact: str_field(r, "artifact")?,
                activity: str_field(r, "activity")?,
                inputs: r["inputs"]
                    .as_array()
                    .map(|a| {
                        a.iter()
                            .filter_map(Value::as_str)
                            .map(str::to_string)
                            .collect()
                    })
                    .unwrap_or_default(),
                agent: str_field(r, "agent")?,
                at_s: r["at_s"].as_f64().unwrap_or(0.0),
            });
        }
        let journal = if v["journal"].is_null() {
            None
        } else {
            Some(JournalDigest {
                events: v["journal"]["events"]
                    .as_u64()
                    .ok_or("manifest: journal missing 'events'")?,
                checksum: hex64(&v["journal"], "checksum")?,
            })
        };
        Ok(ShipmentManifest {
            source: str_field(v, "source")?,
            destination: str_field(v, "destination")?,
            created_s: v["created_s"].as_f64().unwrap_or(0.0),
            artifacts,
            lineage,
            journal,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShipmentManifest {
        let mut m = ShipmentManifest::new("ace-defiant", "frontier-orion", 120.5);
        for (name, bytes) in [
            ("tiles-MOD.A2022001.0610.nc", 5_000_000u64),
            ("tiles-MOD.A2022001.0615.nc", 4_200_000),
        ] {
            m.artifacts.push(ArtifactEntry {
                name: name.to_string(),
                bytes,
                digest: synthetic_digest(name, bytes),
                trace_id: Some(name["tiles-".len()..name.len() - 3].to_string()),
            });
        }
        m.lineage.push(LineageRecord {
            artifact: "tiles-MOD.A2022001.0610.nc".into(),
            activity: "preprocess".into(),
            inputs: vec!["defiant:MOD021KM.A2022001.0610.hdf".into()],
            agent: "parsl-worker".into(),
            at_s: 40.0,
        });
        m.journal = Some(JournalDigest {
            events: 17,
            checksum: 0xdead_beef_0bad_f00d,
        });
        m
    }

    #[test]
    fn digests_are_deterministic_and_content_sensitive() {
        assert_eq!(content_digest(b"abc"), content_digest(b"abc"));
        assert_ne!(content_digest(b"abc"), content_digest(b"abd"));
        assert_eq!(synthetic_digest("a.nc", 10), synthetic_digest("a.nc", 10));
        assert_ne!(synthetic_digest("a.nc", 10), synthetic_digest("a.nc", 11));
        assert_ne!(synthetic_digest("a.nc", 10), synthetic_digest("b.nc", 10));
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = sample();
        let back = ShipmentManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.id(), m.id());
        assert_eq!(m.total_bytes(), 9_200_000);
        assert_eq!(
            m.trace_ids(),
            vec!["MOD.A2022001.0610", "MOD.A2022001.0615"]
        );
    }

    #[test]
    fn id_is_stable_across_reships_but_not_across_content() {
        let a = sample();
        let b = sample();
        assert_eq!(a.id(), b.id(), "same shipment, same id");
        let mut c = sample();
        c.artifacts[0].digest ^= 1;
        assert_ne!(a.id(), c.id(), "corrupt content changes the id");
        let mut d = sample();
        d.journal = Some(JournalDigest {
            events: 18,
            checksum: 1,
        });
        assert_ne!(a.id(), d.id(), "different journal state, different id");
    }

    #[test]
    fn malformed_json_is_a_typed_error() {
        assert!(ShipmentManifest::from_json(&json!({})).is_err());
        let v = json!({
            "source": "a",
            "destination": "b",
            "created_s": 0.0,
            "artifacts": [{ "name": "x.nc", "bytes": 1, "digest": "zz" }],
        });
        assert!(ShipmentManifest::from_json(&v)
            .unwrap_err()
            .contains("not hex"));
    }
}

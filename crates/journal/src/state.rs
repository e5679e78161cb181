//! Materialised journal state: the completed-work sets a resuming driver
//! consults to skip finished granules, tiles, labels, and shipments. Also
//! the payload of snapshot events, so recovery is O(tail) instead of
//! O(whole journal).

use crate::event::JournalEvent;
use serde_json::{json, Map, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Everything a driver needs to know about work already durably completed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignState {
    /// World seed of the campaign that wrote the journal.
    pub seed: Option<u64>,
    /// Campaign label.
    pub label: Option<String>,
    /// Stages that have started.
    pub stages_started: BTreeSet<String>,
    /// Stages that have finished.
    pub stages_finished: BTreeSet<String>,
    /// Downloaded files → payload bytes.
    pub downloaded: BTreeMap<String, u64>,
    /// Written tile files → tile count.
    pub tile_files: BTreeMap<String, u64>,
    /// Files the monitor has already surfaced (dedups triggers on resume).
    pub monitor_seen: BTreeSet<String>,
    /// Labeled files → (labels, file bytes).
    pub labeled: BTreeMap<String, (u64, u64)>,
    /// Completed final shipment, if any: (files, bytes).
    pub shipped: Option<(u64, u64)>,
    /// Acknowledged ingest manifests → (files, bytes) verified. Keyed by
    /// manifest id; re-ships of an acked manifest are idempotent no-ops.
    pub ingests_acked: BTreeMap<String, (u64, u64)>,
    /// Ingest rejections per facility (durable audit of loud failures).
    pub ingest_rejections: BTreeMap<String, u64>,
    /// Last recorded state + context per in-flight flow run.
    pub flow_states: BTreeMap<u64, (String, Value)>,
    /// Terminal status per finished flow run.
    pub flows_finished: BTreeMap<u64, String>,
    /// Keyed service records (tenant registries, campaign lifecycle, ...):
    /// last write wins, `null` deletes. Opaque to the journal.
    pub service_records: BTreeMap<String, Value>,
    /// Events folded into this state (snapshot bookkeeping).
    pub events_applied: u64,
}

impl CampaignState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one event in.
    pub fn apply(&mut self, event: &JournalEvent) {
        self.events_applied += 1;
        match event {
            JournalEvent::CampaignStarted { seed, label } => {
                self.seed = Some(*seed);
                self.label = Some(label.clone());
            }
            JournalEvent::StageStarted { stage } => {
                self.stages_started.insert(stage.clone());
            }
            JournalEvent::StageFinished { stage } => {
                self.stages_finished.insert(stage.clone());
            }
            JournalEvent::FileDownloaded { file, bytes } => {
                self.downloaded.insert(file.clone(), *bytes);
            }
            JournalEvent::TileFileWritten { file, tiles } => {
                self.tile_files.insert(file.clone(), *tiles);
            }
            JournalEvent::MonitorTriggered { file } => {
                self.monitor_seen.insert(file.clone());
            }
            JournalEvent::LabelsAppended {
                file,
                labels,
                bytes,
            } => {
                self.labeled.insert(file.clone(), (*labels, *bytes));
            }
            JournalEvent::ShipmentFinished { files, bytes } => {
                self.shipped = Some((*files, *bytes));
            }
            JournalEvent::IngestAcked {
                manifest,
                files,
                bytes,
                ..
            } => {
                self.ingests_acked
                    .insert(manifest.clone(), (*files, *bytes));
            }
            JournalEvent::IngestRejected { facility, .. } => {
                *self.ingest_rejections.entry(facility.clone()).or_insert(0) += 1;
            }
            JournalEvent::FlowTransition {
                run,
                state,
                context,
            } => {
                self.flow_states
                    .insert(*run, (state.clone(), context.clone()));
            }
            JournalEvent::FlowFinished { run, status } => {
                self.flow_states.remove(run);
                self.flows_finished.insert(*run, status.clone());
            }
            JournalEvent::ServiceRecord { key, value } => {
                if value.is_null() {
                    self.service_records.remove(key);
                } else {
                    self.service_records.insert(key.clone(), value.clone());
                }
            }
            JournalEvent::Snapshot { .. } => {
                // Snapshots carry state; they do not change it.
            }
        }
    }

    /// Whether a download already completed durably.
    pub fn is_downloaded(&self, file: &str) -> bool {
        self.downloaded.contains_key(file)
    }

    /// Whether a tile file was already written.
    pub fn has_tile_file(&self, file: &str) -> bool {
        self.tile_files.contains_key(file)
    }

    /// Whether the monitor already surfaced this file.
    pub fn monitor_saw(&self, file: &str) -> bool {
        self.monitor_seen.contains(file)
    }

    /// Whether labels were already appended to this file.
    pub fn is_labeled(&self, file: &str) -> bool {
        self.labeled.contains_key(file)
    }

    /// Whether a stage already ran to completion.
    pub fn stage_done(&self, stage: &str) -> bool {
        self.stages_finished.contains(stage)
    }

    /// Whether a shipment manifest was already acknowledged by its
    /// destination (the idempotency check for re-ships).
    pub fn is_ingest_acked(&self, manifest: &str) -> bool {
        self.ingests_acked.contains_key(manifest)
    }

    /// FNV-1a checksum of this state's canonical JSON with
    /// `events_applied` zeroed — the *work checksum* behind
    /// [`Journal::state_digest`](crate::Journal::state_digest) and the
    /// shipment-manifest `JournalDigest`. Replay bookkeeping is excluded,
    /// so the checksum is invariant under compaction and crash/resume:
    /// two journals that durably completed the same work agree, and any
    /// divergence in completed work changes it. A destination facility
    /// recomputes this over a synced state payload to detect tampering or
    /// truncation before trusting it for failover.
    pub fn work_checksum(&self) -> u64 {
        let mut canon = self.clone();
        canon.events_applied = 0;
        eoml_util::checksum::fnv1a64(canon.to_json().to_string().as_bytes())
    }

    /// Serialise for a snapshot event.
    pub fn to_json(&self) -> Value {
        let pairs = |m: &BTreeMap<String, u64>| -> Value {
            Value::Object(m.iter().map(|(k, v)| (k.clone(), json!(*v))).collect())
        };
        json!({
            "seed": self.seed.map(|s| json!(s)).unwrap_or(Value::Null),
            "label": self.label.clone().map(Value::String).unwrap_or(Value::Null),
            "stages_started": self.stages_started.iter().cloned().collect::<Vec<_>>(),
            "stages_finished": self.stages_finished.iter().cloned().collect::<Vec<_>>(),
            "downloaded": pairs(&self.downloaded),
            "tile_files": pairs(&self.tile_files),
            "monitor_seen": self.monitor_seen.iter().cloned().collect::<Vec<_>>(),
            "labeled": Value::Object(
                self.labeled
                    .iter()
                    .map(|(k, (labels, bytes))| {
                        (k.clone(), json!({ "labels": *labels, "bytes": *bytes }))
                    })
                    .collect::<Map>(),
            ),
            "shipped": self
                .shipped
                .map(|(files, bytes)| json!({ "files": files, "bytes": bytes }))
                .unwrap_or(Value::Null),
            "ingests_acked": Value::Object(
                self.ingests_acked
                    .iter()
                    .map(|(k, (files, bytes))| {
                        (k.clone(), json!({ "files": *files, "bytes": *bytes }))
                    })
                    .collect::<Map>(),
            ),
            "ingest_rejections": pairs(&self.ingest_rejections),
            "flow_states": Value::Object(
                self.flow_states
                    .iter()
                    .map(|(run, (state, ctx))| {
                        (run.to_string(), json!({ "state": state, "context": ctx }))
                    })
                    .collect::<Map>(),
            ),
            "flows_finished": Value::Object(
                self.flows_finished
                    .iter()
                    .map(|(run, status)| (run.to_string(), Value::String(status.clone())))
                    .collect::<Map>(),
            ),
            "service_records": Value::Object(
                self.service_records
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Map>(),
            ),
            "events_applied": self.events_applied,
        })
    }

    /// Rebuild from a snapshot payload.
    pub fn from_json(v: &Value) -> Result<CampaignState, String> {
        let mut s = CampaignState::new();
        s.seed = v["seed"].as_u64();
        s.label = v["label"].as_str().map(str::to_string);
        let str_set = |key: &str| -> BTreeSet<String> {
            v[key]
                .as_array()
                .map(|a| {
                    a.iter()
                        .filter_map(Value::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default()
        };
        s.stages_started = str_set("stages_started");
        s.stages_finished = str_set("stages_finished");
        s.monitor_seen = str_set("monitor_seen");
        let u64_map = |key: &str| -> Result<BTreeMap<String, u64>, String> {
            match v[key].as_object() {
                None => Ok(BTreeMap::new()),
                Some(obj) => obj
                    .iter()
                    .map(|(k, val)| {
                        val.as_u64()
                            .map(|n| (k.clone(), n))
                            .ok_or_else(|| format!("snapshot {key}[{k}] not a count"))
                    })
                    .collect(),
            }
        };
        s.downloaded = u64_map("downloaded")?;
        s.tile_files = u64_map("tile_files")?;
        if let Some(obj) = v["labeled"].as_object() {
            for (k, entry) in obj.iter() {
                let labels = entry["labels"]
                    .as_u64()
                    .ok_or_else(|| format!("snapshot labeled[{k}] missing labels"))?;
                let bytes = entry["bytes"]
                    .as_u64()
                    .ok_or_else(|| format!("snapshot labeled[{k}] missing bytes"))?;
                s.labeled.insert(k.clone(), (labels, bytes));
            }
        }
        if !v["shipped"].is_null() {
            let files = v["shipped"]["files"]
                .as_u64()
                .ok_or("snapshot shipped missing files")?;
            let bytes = v["shipped"]["bytes"]
                .as_u64()
                .ok_or("snapshot shipped missing bytes")?;
            s.shipped = Some((files, bytes));
        }
        if let Some(obj) = v["ingests_acked"].as_object() {
            for (k, entry) in obj.iter() {
                let files = entry["files"]
                    .as_u64()
                    .ok_or_else(|| format!("snapshot ingests_acked[{k}] missing files"))?;
                let bytes = entry["bytes"]
                    .as_u64()
                    .ok_or_else(|| format!("snapshot ingests_acked[{k}] missing bytes"))?;
                s.ingests_acked.insert(k.clone(), (files, bytes));
            }
        }
        s.ingest_rejections = u64_map("ingest_rejections")?;
        if let Some(obj) = v["flow_states"].as_object() {
            for (k, entry) in obj.iter() {
                let run: u64 = k.parse().map_err(|_| format!("bad flow run id {k}"))?;
                let state = entry["state"]
                    .as_str()
                    .ok_or_else(|| format!("snapshot flow_states[{k}] missing state"))?;
                s.flow_states
                    .insert(run, (state.to_string(), entry["context"].clone()));
            }
        }
        if let Some(obj) = v["flows_finished"].as_object() {
            for (k, entry) in obj.iter() {
                let run: u64 = k.parse().map_err(|_| format!("bad flow run id {k}"))?;
                let status = entry
                    .as_str()
                    .ok_or_else(|| format!("snapshot flows_finished[{k}] not a string"))?;
                s.flows_finished.insert(run, status.to_string());
            }
        }
        if let Some(obj) = v["service_records"].as_object() {
            for (k, entry) in obj.iter() {
                s.service_records.insert(k.clone(), entry.clone());
            }
        }
        s.events_applied = v["events_applied"].as_u64().unwrap_or(0);
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> CampaignState {
        let mut s = CampaignState::new();
        for ev in [
            JournalEvent::CampaignStarted {
                seed: 9,
                label: "demo".into(),
            },
            JournalEvent::StageStarted {
                stage: "download".into(),
            },
            JournalEvent::FileDownloaded {
                file: "a.hdf".into(),
                bytes: 100,
            },
            JournalEvent::StageFinished {
                stage: "download".into(),
            },
            JournalEvent::TileFileWritten {
                file: "t.nc".into(),
                tiles: 5,
            },
            JournalEvent::MonitorTriggered {
                file: "t.nc".into(),
            },
            JournalEvent::LabelsAppended {
                file: "t.nc".into(),
                labels: 5,
                bytes: 777,
            },
            JournalEvent::FlowTransition {
                run: 3,
                state: "Infer".into(),
                context: json!({ "file": "t.nc" }),
            },
            JournalEvent::ShipmentFinished {
                files: 1,
                bytes: 777,
            },
        ] {
            s.apply(&ev);
        }
        s
    }

    #[test]
    fn apply_builds_completed_sets() {
        let s = populated();
        assert!(s.is_downloaded("a.hdf"));
        assert!(!s.is_downloaded("b.hdf"));
        assert!(s.stage_done("download"));
        assert!(s.has_tile_file("t.nc"));
        assert!(s.monitor_saw("t.nc"));
        assert!(s.is_labeled("t.nc"));
        assert_eq!(s.shipped, Some((1, 777)));
        assert_eq!(
            s.flow_states.get(&3).map(|(st, _)| st.as_str()),
            Some("Infer")
        );
        assert_eq!(s.events_applied, 9);
    }

    #[test]
    fn flow_finish_clears_inflight_state() {
        let mut s = populated();
        s.apply(&JournalEvent::FlowFinished {
            run: 3,
            status: "succeeded".into(),
        });
        assert!(s.flow_states.is_empty());
        assert_eq!(
            s.flows_finished.get(&3).map(String::as_str),
            Some("succeeded")
        );
    }

    #[test]
    fn service_records_upsert_delete_and_round_trip() {
        let mut s = CampaignState::new();
        s.apply(&JournalEvent::ServiceRecord {
            key: "tenant/acme".into(),
            value: json!({ "weight": 4 }),
        });
        s.apply(&JournalEvent::ServiceRecord {
            key: "campaign/acme/winter".into(),
            value: json!({ "status": "queued" }),
        });
        // Last write wins.
        s.apply(&JournalEvent::ServiceRecord {
            key: "campaign/acme/winter".into(),
            value: json!({ "status": "running" }),
        });
        assert_eq!(
            s.service_records["campaign/acme/winter"]["status"].as_str(),
            Some("running")
        );
        // Round-trips through the snapshot form.
        let back = CampaignState::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        // Null deletes.
        s.apply(&JournalEvent::ServiceRecord {
            key: "campaign/acme/winter".into(),
            value: Value::Null,
        });
        assert!(!s.service_records.contains_key("campaign/acme/winter"));
        assert!(s.service_records.contains_key("tenant/acme"));
    }

    #[test]
    fn ingest_acks_and_rejections_fold_and_round_trip() {
        let mut s = populated();
        assert!(!s.is_ingest_acked("ace-defiant-0001"));
        s.apply(&JournalEvent::IngestRejected {
            manifest: "ace-defiant-0001".into(),
            facility: "frontier-orion".into(),
            reason: "digest mismatch on t.nc".into(),
        });
        assert!(
            !s.is_ingest_acked("ace-defiant-0001"),
            "rejection is not an ack"
        );
        assert_eq!(s.ingest_rejections["frontier-orion"], 1);
        s.apply(&JournalEvent::IngestAcked {
            manifest: "ace-defiant-0001".into(),
            facility: "frontier-orion".into(),
            files: 1,
            bytes: 777,
        });
        assert!(s.is_ingest_acked("ace-defiant-0001"));
        assert_eq!(s.ingests_acked["ace-defiant-0001"], (1, 777));
        // Replaying the same ack is idempotent on the map.
        s.apply(&JournalEvent::IngestAcked {
            manifest: "ace-defiant-0001".into(),
            facility: "frontier-orion".into(),
            files: 1,
            bytes: 777,
        });
        assert_eq!(s.ingests_acked.len(), 1);
        let back = CampaignState::from_json(&s.to_json()).unwrap();
        assert_eq!(back.ingests_acked, s.ingests_acked);
        assert_eq!(back.ingest_rejections, s.ingest_rejections);
    }

    #[test]
    fn snapshot_round_trips() {
        let s = populated();
        let back = CampaignState::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn empty_state_round_trips() {
        let s = CampaignState::new();
        assert_eq!(CampaignState::from_json(&s.to_json()).unwrap(), s);
    }
}

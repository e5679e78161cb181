//! The `service_storm` workload: a tenant population submitted up front to
//! a fresh `CampaignService`, then drained with `run_until_idle`.

use crate::inputs::{StormPlan, WHALE_DAYS};
use crate::layers::JournalCounts;
use crate::realrun::WORKERS;
use crate::report::{with_peak_rss, Outcome};
use crate::stats::{median, report_passes};
use crate::trace::Tracer;
use eoml_service::{CampaignService, CampaignSpec, ServiceConfig, ServiceReport, TenantSpec};
use std::path::Path;
use std::time::{Duration, Instant};

/// Storms an untraced run drains however long they take.
const MIN_PASSES: usize = 3;

/// The service configuration: the test-sized cluster and ops plane, with
/// one admission shard (one drain thread) per worker.
fn config() -> ServiceConfig {
    ServiceConfig {
        shards: WORKERS,
        ..ServiceConfig::small()
    }
}

/// Open a service on a fresh ledger root and register and submit the
/// whole population, one traced `register_tenant` + `submit` per tenant.
pub fn setup(plan: &StormPlan, root: &Path, tracer: &Tracer) -> Result<CampaignService, String> {
    let _ = std::fs::remove_dir_all(root);
    let (service, recovery) =
        CampaignService::open(root, config()).map_err(|e| format!("service open: {e}"))?;
    if recovery.tenants != 0 {
        return Err(format!("fresh root {} recovered tenants", root.display()));
    }
    let tenants = plan
        .small
        .iter()
        .map(|(id, seed)| (id, 1, 8, "job", CampaignSpec::small(*seed)))
        .chain(
            plan.whales
                .iter()
                .map(|(id, seed)| (id, 4, 24, "reproc", CampaignSpec::whale(*seed, WHALE_DAYS))),
        );
    for (id, weight, budget, campaign, spec) in tenants {
        tracer
            .span("service", "register", || {
                let tenant = TenantSpec::new(id, weight, budget)?;
                service.register_tenant(tenant).map_err(|e| e.to_string())?;
                service
                    .submit(id, campaign, spec)
                    .map_err(|e| e.to_string())
            })
            .map_err(|e| format!("tenant {id}: {e}"))?;
    }
    Ok(service)
}

/// Campaigns of `plan` that the drain did not complete, or an error when
/// the report does not describe a drain of this plan.
fn incomplete(plan: &StormPlan, report: &ServiceReport) -> Result<usize, String> {
    if report.campaigns.len() != plan.campaigns() || report.quanta != plan.quanta() {
        return Err(format!(
            "{} campaigns in {} quanta, expected {} in {}",
            report.campaigns.len(),
            report.quanta,
            plan.campaigns(),
            plan.quanta()
        ));
    }
    if report.granules == 0 || report.total_tiles <= 0.0 {
        return Err("the storm processed no simulated granules".into());
    }
    Ok(plan.campaigns() - report.completed)
}

/// Output checks across the storms of one run: every campaign completes,
/// and each drain simulates exactly the granules and tiles of the first.
struct Checker<'a> {
    plan: &'a StormPlan,
    reference: Option<(usize, f64)>,
    outcome: Outcome,
}

impl Checker<'_> {
    fn check(&mut self, report: Result<ServiceReport, String>) -> Option<ServiceReport> {
        let campaigns = self.plan.campaigns() as u64;
        self.outcome.attempted += campaigns;
        let verdict = report.and_then(|report| {
            let failed = incomplete(self.plan, &report)?;
            let totals = (report.granules, report.total_tiles);
            if *self.reference.get_or_insert(totals) != totals {
                return Err(format!(
                    "storm totals {totals:?} differ from the first storm's"
                ));
            }
            Ok((failed, report))
        });
        match verdict {
            Ok((failed, report)) => {
                self.outcome.failed += failed as u64;
                (failed == 0).then_some(report)
            }
            Err(e) => {
                eprintln!("storm failed its output check: {e}");
                self.outcome.failed += campaigns;
                None
            }
        }
    }
}

/// One storm: set up, then drain. Returns the set-up and drain seconds and
/// the drained service.
fn storm(
    plan: &StormPlan,
    root: &Path,
    tracer: &Tracer,
) -> Result<(f64, f64, CampaignService, Result<ServiceReport, String>), String> {
    let t = Instant::now();
    let service = setup(plan, root, tracer)?;
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = tracer
        .span("service", "run", || service.run_until_idle())
        .map_err(|e| format!("drain: {e}"));
    Ok((setup_s, t.elapsed().as_secs_f64(), service, report))
}

/// Untraced run: storms on fresh roots until `seconds` are spent (at least
/// three). Every storm sets up anew; `setup_s` is the median set-up and
/// `peak_rss_mb` the median over storms of each storm's peak.
pub fn untraced(plan: &StormPlan, root: &Path, seconds: f64) -> Result<Outcome, String> {
    let tracer = Tracer::off();
    let mut checker = Checker {
        plan,
        reference: None,
        outcome: Outcome::default(),
    };
    let (mut setup, mut passes, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    for attempt in 1.. {
        let (storm, peak) = with_peak_rss(|| storm(plan, root, &tracer));
        let (setup_s, run_s, service, report) = storm?;
        drop(service);
        let _ = std::fs::remove_dir_all(root);
        setup.push(setup_s);
        if let Some(report) = checker.check(report) {
            passes.push((run_s, report));
            peaks.push(peak?);
        }
        let typical = median(&setup).unwrap_or(0.0)
            + median(&passes.iter().map(|p| p.0).collect::<Vec<_>>()).unwrap_or(0.0);
        if attempt >= MIN_PASSES && start.elapsed().as_secs_f64() + typical > seconds {
            break;
        }
    }
    let missing = "no storm passed its output check";
    let rate = |per: &dyn Fn(&ServiceReport) -> f64| {
        median(&passes.iter().map(|(s, r)| per(r) / s).collect::<Vec<_>>()).ok_or(missing)
    };
    let secs: Vec<f64> = passes.iter().map(|p| p.0).collect();
    report_passes(&secs);
    eprintln!(
        "campaigns_per_s {:.4}, simulated granules_per_s {:.4}",
        rate(&|r| r.completed as f64)?,
        rate(&|r| r.granules as f64)?
    );
    let mut out = checker.outcome;
    out.set("tiles_per_s", rate(&|r| r.total_tiles)?);
    out.set("pass_s.p50", median(&secs).ok_or(missing)?);
    out.set("setup_s", median(&setup).expect("at least one storm"));
    out.set("peak_rss_mb", median(&peaks).ok_or(missing)?);
    Ok(out)
}

/// Traced run: storms until `deadline` (at least one). Reports the service
/// layer metrics and returns the journal work of the last storm's tenant
/// ledgers, counted by the service's own hub.
pub fn traced(
    plan: &StormPlan,
    root: &Path,
    tracer: &Tracer,
    deadline: Instant,
) -> Result<(Outcome, JournalCounts), String> {
    let mut checker = Checker {
        plan,
        reference: None,
        outcome: Outcome::default(),
    };
    let mut last = None;
    let mut typical = Duration::ZERO;
    while last.is_none() || Instant::now() + typical < deadline {
        let t = Instant::now();
        let (_, _, service, report) = storm(plan, root, tracer)?;
        let counts = JournalCounts::from_hub(service.obs());
        let ops_events = service.ops_log().len();
        drop(service);
        let _ = std::fs::remove_dir_all(root);
        match checker.check(report) {
            Some(report) => last = Some((report.quanta, ops_events, counts)),
            None => break,
        }
        typical = t.elapsed();
    }
    let mut out = checker.outcome;
    let (quanta, ops_events, counts) = last.ok_or("no storm passed its output check")?;
    out.set(
        "service.register_s",
        median(&tracer.secs("service", "register")).ok_or("no register span")?,
    );
    out.set(
        "service.run_s",
        median(&tracer.secs("service", "run")).ok_or("no drain span")?,
    );
    out.set("service.quanta", quanta as f64);
    out.set("service.ops_events", ops_events as f64);
    Ok((out, counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;

    #[test]
    fn storm_counts_repeat_across_passes() {
        let root =
            std::env::temp_dir().join(format!("eoml-perfbench-storm-{}", std::process::id()));
        let plan = inputs::mini_storm(3);
        let counts: Vec<(usize, JournalCounts)> = (0..2)
            .map(|_| {
                let (_, _, service, report) = storm(&plan, &root, &Tracer::off()).unwrap();
                let report = report.unwrap();
                assert_eq!(incomplete(&plan, &report), Ok(0));
                let counts = JournalCounts::from_hub(service.obs());
                drop(service);
                std::fs::remove_dir_all(&root).unwrap();
                (report.quanta, counts)
            })
            .collect();
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[0].0, plan.quanta());
        assert!(counts[0].1.fsyncs > 0);
    }
}

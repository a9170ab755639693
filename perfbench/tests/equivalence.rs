//! The bench-built world must simulate exactly what `run_page_load`
//! simulates: same PLT, same per-resource timings and, on the audited
//! workload, the same per-link and per-connection audit digests. A
//! harness change that the bench world does not mirror fails here
//! instead of silently skewing the traced ledger.

use mahimahi::harness::run_page_load;
use mm_audit::Auditor;
use mm_browser::PageLoadResult;
use mm_corpus::materialize;
use mm_trace::TraceBuffer;
use perfbench::workload::{Setup, Workload};
use perfbench::world::run_world;

/// Sites checked per workload: spread over the site set.
const SITES: [usize; 3] = [0, 37, 99];

fn timings(r: &PageLoadResult) -> Vec<(String, u64, u64, u16, u64, bool)> {
    r.resources
        .iter()
        .map(|t| {
            (
                t.url.clone(),
                t.queued_at.as_nanos(),
                t.finished_at.as_nanos(),
                t.status,
                t.body_bytes,
                t.failed,
            )
        })
        .collect()
}

fn check(workload: Workload) {
    let setup = Setup::new(workload, perfbench::workload::DEFAULT_SEED);
    let observed = workload.observed();
    for i in SITES {
        let site = materialize(&setup.plans[i]);
        let mut spec = setup.load_spec(&site, i);
        let auditor = Auditor::for_load(i as u64);
        let buffer = TraceBuffer::for_load(i as u64);
        if observed {
            spec.audit = Some(auditor.clone());
            spec.span = Some(buffer.handle());
        }
        let harness = run_page_load(&spec);
        let harness_audit = observed.then(|| auditor.finish());

        let world = run_world(&spec, observed, i as u64);
        assert_eq!(
            world.result.plt,
            harness.plt,
            "{} site {i}",
            workload.name()
        );
        assert_eq!(world.result.total_body_bytes, harness.total_body_bytes);
        assert_eq!(world.result.failures, harness.failures);
        assert_eq!(timings(&world.result), timings(&harness));
        if let (Some(a), Some(b)) = (&harness_audit, &world.audit) {
            assert!(a.is_clean() && b.is_clean());
            assert_eq!(a.digests, b.digests, "{} site {i}", workload.name());
            assert_eq!(world.spans.len(), buffer.spans().len());
        }
    }
}

#[test]
fn broadband_world_matches_run_page_load() {
    check(Workload::Broadband);
}

#[test]
fn cellular_audited_world_matches_run_page_load() {
    check(Workload::CellularAudited);
}

#[test]
fn soak_proxy_world_matches_run_page_load() {
    // The soak's single-load proxies: its site behind its network.
    let setup = Setup::new(Workload::Soak, perfbench::workload::DEFAULT_SEED);
    let site = materialize(&setup.plans[0]);
    for i in 0..2 {
        let spec = setup.load_spec(&site, i);
        let harness = run_page_load(&spec);
        let world = run_world(&spec, false, 0);
        assert_eq!(timings(&world.result), timings(&harness));
        assert_eq!(world.result.plt, harness.plt);
    }
}

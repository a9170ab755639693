//! The output oracle: every workload's expected simulated outputs at
//! [`DEFAULT_SEED`], one line per site (replay) or per soak world,
//! committed under `oracle/` and compiled in.
//!
//! A change that makes a workload faster by simulating something else
//! shows up as an oracle mismatch, which counts as a failed load.

use crate::timed::{LoadOutput, SoakOutput};
use crate::workload::{Workload, DEFAULT_SEED};

/// The committed oracle text for `workload`.
fn text(workload: Workload) -> &'static str {
    match workload {
        Workload::Broadband => include_str!("../oracle/replay-broadband.txt"),
        Workload::CellularAudited => include_str!("../oracle/replay-cellular-audited.txt"),
        Workload::Soak => include_str!("../oracle/soak-openloop.txt"),
    }
}

/// The oracle line of one replay load.
pub fn load_line(site: usize, o: &LoadOutput) -> String {
    format!(
        "site {site} plt_ns {} resources {} body_bytes {} failures {}",
        o.plt_ns, o.resources, o.body_bytes, o.failures
    )
}

/// The oracle line of one soak world (floats in shortest round-trip form).
pub fn soak_line(o: &SoakOutput) -> String {
    format!(
        "soak started {} completed {} shed {} resources {} failures {} plt_p50_ms {:?} \
         plt_p95_ms {:?} plt_p99_ms {:?} completed_at_ns {} server_conns_final {} \
         client_sockets_final {}",
        o.started,
        o.completed,
        o.shed,
        o.resources,
        o.failures,
        o.plt_p50_ms,
        o.plt_p95_ms,
        o.plt_p99_ms,
        o.completed_at_ns,
        o.server_conns_final,
        o.client_sockets_final
    )
}

/// The expected lines for `workload` at `seed`: `Some` only at the
/// default seed the oracle was recorded at.
pub fn expected(workload: Workload, seed: u64) -> Option<Vec<&'static str>> {
    (seed == DEFAULT_SEED).then(|| {
        text(workload)
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .collect()
    })
}

/// Header of a freshly written oracle file.
pub fn header(workload: Workload) -> String {
    format!(
        "# perfbench output oracle: {} at seed {DEFAULT_SEED}. Regenerate with\n\
         # `python3 perfbench/run.py --workload {} --write-oracle` only when a\n\
         # change is meant to alter simulated outputs.\n",
        workload.name(),
        workload.name()
    )
}

//! perfbench — the host-cost benchmark of the mahimahi reproduction.
//!
//! A run drives one named workload through the public APIs
//! (`run_page_load`, `run_soak`) for a fixed number of repeats, set by
//! `--seconds` alone, and reports end-to-end host cost. A bench-built
//! replica of each load's world, which times every engine step per
//! component tag and counts the work of each layer, gives the exact
//! counters and, in a traced run, the per-layer ledger, together with
//! offline probes of the codecs, the recorder and each observer channel.
//! See `NOTES.md`.

pub mod chunk;
pub mod oracle;
pub mod probes;
pub mod report;
pub mod rss;
pub mod run;
pub mod spanlog;
pub mod stats;
pub mod timed;
pub mod workload;
pub mod world;

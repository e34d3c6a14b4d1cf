//! # swifi-bench — reproduction and performance benches
//!
//! Two bench targets:
//!
//! - `repro` (custom harness): regenerates **every table and figure** of
//!   the reproduced paper. Run all of it with
//!   `cargo bench -p swifi-bench --bench repro`, or one artefact with e.g.
//!   `cargo bench -p swifi-bench --bench repro -- fig7`. Set `REPRO_FULL=1`
//!   for the paper's full scale (300 inputs per fault, >100 000 runs).
//!   Results are also dumped as JSON under `target/repro/`.
//! - `perf` (custom harness): the engine bench. One tier ladder, from the
//!   cold reference interpreter to the default campaign engine, over the
//!   §6 class-campaign schedules, from fresh state every round; checks
//!   every tier's outcomes against the reference and writes
//!   `BENCH_engine.json`. Run it with
//!   `cargo bench -p swifi-bench --bench perf`.

#![warn(missing_docs)]

use std::path::PathBuf;

/// Directory where the repro harness writes machine-readable results:
/// `<workspace root>/target/repro`, regardless of the bench's working
/// directory.
pub fn repro_output_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("target/repro");
    std::fs::create_dir_all(&dir).expect("create target/repro");
    dir
}

/// Persist a JSON artefact under `target/repro/<name>.json`.
pub fn dump_json<T: serde::Serialize>(name: &str, value: &T) {
    let path = repro_output_dir().join(format!("{name}.json"));
    let data = serde_json::to_string_pretty(value).expect("serializable");
    std::fs::write(&path, data).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

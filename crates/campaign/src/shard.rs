//! Campaign sharding: split a campaign's (fault, input) run schedule
//! into contiguous per-phase ranges, run each range against its own
//! checkpoint, and union the shard checkpoints back into one campaign.
//!
//! The whole design leans on the PR 4 invariant that the checkpoint *is*
//! the campaign: records key by `(phase, index)` and drivers fold their
//! reports from records, so a shard run simply produces a checkpoint
//! with a subset of the records. Merging is a set union under one
//! validated header, and the merged report is produced by a final
//! `resume = true` pass in which every item replays — byte-for-byte the
//! same fold an uninterrupted single-process campaign performs. That
//! makes shard equality true by construction, and makes a killed shard
//! free to recover: its missing records are simply executed by the
//! final pass like any other unrecorded item.

use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::engine::{read_checkpoint, CampaignOptions, Checkpoint};

/// One shard's identity: `index` of `count` contiguous slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's position, `0 .. count`.
    pub index: u64,
    /// Total number of shards the campaign is split into.
    pub count: u64,
}

impl Shard {
    /// A validated shard identity.
    ///
    /// # Errors
    ///
    /// Rejects `count == 0` and `index >= count`.
    pub fn new(index: u64, count: u64) -> Result<Shard, String> {
        let s = Shard { index, count };
        s.validate()?;
        Ok(s)
    }

    /// Check the identity is well-formed.
    ///
    /// # Errors
    ///
    /// Rejects `count == 0` and `index >= count`.
    pub fn validate(&self) -> Result<(), String> {
        if self.count == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if self.index >= self.count {
            return Err(format!(
                "shard index {} out of range for {} shard(s)",
                self.index, self.count
            ));
        }
        Ok(())
    }

    /// This shard's contiguous slice of a phase with `items` work items.
    ///
    /// The `⌊items·k/count⌋` split tiles `0..items` exactly — every item
    /// lands in one and only one shard — and balances within one item.
    pub fn range(&self, items: usize) -> Range<usize> {
        let n = items as u64;
        let lo = n * self.index / self.count;
        let hi = n * (self.index + 1) / self.count;
        lo as usize..hi as usize
    }
}

/// What [`merge_checkpoints`] found and wrote.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeSummary {
    /// Shard checkpoint files read.
    pub shards_read: usize,
    /// Shards with no checkpoint: missing, empty, or killed before the
    /// header's newline reached disk. Their records are executed by the
    /// final resume pass instead.
    pub shards_missing: usize,
    /// Distinct `(phase, index)` records written to the merged file.
    pub records: usize,
    /// Records seen more than once (first occurrence wins; duplicates
    /// only arise when shard ranges overlapped, e.g. after a
    /// resubmission with a different shard count).
    pub duplicates: usize,
    /// Merged records per phase, in phase-name order. The server streams
    /// these as `phase` progress events.
    pub phases: Vec<(String, u64)>,
}

/// Union shard checkpoint files into one merged checkpoint at `out`.
///
/// Every shard is read as [`crate::engine::CheckpointLog::resume`]
/// reads it (a torn tail is dropped, a malformed terminated line errors
/// naming the file and line), and every shard present must carry the
/// same header — mixing shards of different campaigns is refused, not
/// silently merged.
///
/// # Errors
///
/// Rejects an empty shard list, mismatched headers, unreadable or
/// corrupt shard files, and I/O failures writing `out`.
pub fn merge_checkpoints(shards: &[PathBuf], out: &Path) -> Result<MergeSummary, String> {
    let mut summary = MergeSummary::default();
    let mut merged: Option<Checkpoint> = None;
    for path in shards {
        let Some(shard) = read_checkpoint(path)? else {
            summary.shards_missing += 1;
            continue;
        };
        summary.shards_read += 1;
        let Some(m) = &mut merged else {
            merged = Some(shard);
            continue;
        };
        m.header.require(&shard.header, path)?;
        m.duplicates += shard.duplicates;
        for (key, v) in shard.records {
            m.insert(key, v);
        }
    }
    let m = merged.ok_or("no shard checkpoint to merge (all missing or empty)")?;
    m.write(out)?;
    summary.records = m.records.len();
    summary.duplicates = m.duplicates;
    for (phase, _) in m.records.keys() {
        match summary.phases.last_mut() {
            Some((last, n)) if last == phase => *n += 1,
            _ => summary.phases.push((phase.clone(), 1)),
        }
    }
    Ok(summary)
}

/// Run one campaign sharded `count` ways entirely in this process: each
/// shard pass writes `dir/{tag}.shard{k}.jsonl`, the shards merge into
/// `dir/{tag}.merged.jsonl`, and a final `resume = true` pass over the
/// merged checkpoint folds the full report. `run` is the driver's
/// `*_campaign_with` entry point, invoked once per shard and once for
/// the merge pass.
///
/// This is the in-process reference implementation of the server's shard
/// orchestration (the server runs shard passes in worker processes but
/// merges through this same machinery), and what the shard-equality
/// tests drive directly.
///
/// # Errors
///
/// Propagates shard-pass, merge, and final-pass failures.
pub fn run_sharded<R>(
    base: &CampaignOptions,
    count: u64,
    dir: &Path,
    tag: &str,
    run: impl Fn(&CampaignOptions) -> Result<R, String>,
) -> Result<(R, MergeSummary), String> {
    Shard::new(count - 1, count)?; // validates count >= 1
    let paths = shard_paths(dir, tag, count);
    for (k, path) in paths.iter().enumerate() {
        let mut opts = base.clone();
        opts.checkpoint = Some(path.clone());
        opts.resume = false;
        opts.shard = Some(Shard::new(k as u64, count)?);
        run(&opts)?;
    }
    let merged = merged_path(dir, tag);
    let summary = merge_checkpoints(&paths, &merged)?;
    let mut opts = base.clone();
    opts.checkpoint = Some(merged);
    opts.resume = true;
    opts.shard = None;
    let result = run(&opts)?;
    Ok((result, summary))
}

/// The per-shard checkpoint paths `run_sharded` uses (shared with the
/// server so both layouts agree).
pub fn shard_paths(dir: &Path, tag: &str, count: u64) -> Vec<PathBuf> {
    (0..count)
        .map(|k| dir.join(format!("{tag}.shard{k}.jsonl")))
        .collect()
}

/// The merged checkpoint path `run_sharded` writes.
pub fn merged_path(dir: &Path, tag: &str) -> PathBuf {
    dir.join(format!("{tag}.merged.jsonl"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CampaignEngine, CheckpointHeader, CheckpointLog, RunRecord, RunStatus};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("swifi-shard-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn shard_ranges_tile_exactly() {
        for items in [0usize, 1, 2, 3, 7, 10, 100, 101] {
            for count in [1u64, 2, 3, 5, 8] {
                let mut covered = vec![false; items];
                for k in 0..count {
                    for i in Shard::new(k, count).unwrap().range(items) {
                        assert!(!covered[i], "item {i} in two shards");
                        covered[i] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "{items} items, {count} shards");
            }
        }
    }

    #[test]
    fn shard_identity_validates() {
        assert!(Shard::new(0, 0).is_err());
        assert!(Shard::new(3, 3).is_err());
        assert!(Shard::new(2, 3).is_ok());
    }

    /// A toy driver: sum of `3 * item` over 10 items, folded from
    /// records like the real drivers fold reports.
    fn toy_driver(opts: &CampaignOptions) -> Result<u64, String> {
        let items: Vec<u64> = (0..10).collect();
        let header = CheckpointHeader::new("toy", 1, items.len() as u64);
        let mut engine = CampaignEngine::new(header, opts)?;
        let (records, _) = engine.run_phase(
            "p",
            &items,
            || (),
            |(), _, &x| x * 3,
            |i, _| format!("item {i}"),
        )?;
        Ok(records
            .iter()
            .map(|r| match &r.status {
                RunStatus::Ok(v) => *v,
                RunStatus::Abnormal { .. } => 0,
            })
            .sum())
    }

    #[test]
    fn sharded_toy_campaign_equals_direct_run() {
        let dir = temp_dir("toy");
        let direct = toy_driver(&CampaignOptions::default()).unwrap();
        for count in [1u64, 2, 3, 7, 10, 16] {
            let (sharded, summary) =
                run_sharded(&CampaignOptions::default(), count, &dir, "toy", toy_driver).unwrap();
            assert_eq!(sharded, direct, "{count} shards");
            assert_eq!(summary.records, 10);
            assert_eq!(summary.duplicates, 0);
            assert_eq!(summary.shards_missing, 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn killed_shard_recovers_in_the_final_pass() {
        let dir = temp_dir("killed");
        let direct = toy_driver(&CampaignOptions::default()).unwrap();

        // Run the shard passes by hand, then lose shard 1 entirely.
        let paths = shard_paths(&dir, "killed", 3);
        for (k, path) in paths.iter().enumerate() {
            let opts = CampaignOptions {
                checkpoint: Some(path.clone()),
                shard: Some(Shard::new(k as u64, 3).unwrap()),
                ..CampaignOptions::default()
            };
            toy_driver(&opts).unwrap();
        }
        std::fs::remove_file(&paths[1]).unwrap();

        let merged = merged_path(&dir, "killed");
        let summary = merge_checkpoints(&paths, &merged).unwrap();
        assert_eq!(summary.shards_missing, 1);
        assert!(summary.records < 10, "shard 1's records are gone");

        let opts = CampaignOptions {
            checkpoint: Some(merged),
            resume: true,
            ..CampaignOptions::default()
        };
        assert_eq!(toy_driver(&opts).unwrap(), direct);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_summary_counts_records_per_phase() {
        let dir = temp_dir("phases");
        let header = CheckpointHeader::new("p", 1, 1);
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        let shards = [
            (&a, vec![("check", 0u64), ("assign", 1)]),
            (&b, vec![("assign", 0), ("assign", 1)]),
        ];
        for (path, keys) in shards {
            let mut log = CheckpointLog::create(path, &header).unwrap();
            for (phase, index) in keys {
                log.append(&RunRecord {
                    phase: phase.to_string(),
                    index,
                    elapsed_micros: 1,
                    status: RunStatus::Ok(0),
                })
                .unwrap();
            }
        }
        // The duplicate `assign#1` counts once.
        let summary = merge_checkpoints(&[a, b], &dir.join("out.jsonl")).unwrap();
        assert_eq!(
            summary.phases,
            vec![("assign".to_string(), 2), ("check".to_string(), 1)]
        );
        assert_eq!(summary.duplicates, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_refuses_mismatched_shard_headers() {
        let dir = temp_dir("mismatch");
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        CheckpointLog::create(&a, &CheckpointHeader::new("x", 1, 1)).unwrap();
        CheckpointLog::create(&b, &CheckpointHeader::new("x", 2, 1)).unwrap();
        let err = merge_checkpoints(&[a, b], &dir.join("out.jsonl")).unwrap_err();
        assert!(err.contains("different campaign"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_tolerates_torn_tails_and_counts_duplicates() {
        let dir = temp_dir("torn");
        let header = CheckpointHeader::new("t", 1, 1);
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        for (path, indices) in [(&a, vec![0u64, 1]), (&b, vec![1u64, 2])] {
            let mut log = CheckpointLog::create(path, &header).unwrap();
            for i in indices {
                log.append(&RunRecord {
                    phase: "p".to_string(),
                    index: i,
                    elapsed_micros: 1,
                    status: RunStatus::Ok(i as u32),
                })
                .unwrap();
            }
        }
        // Tear b's tail mid-append.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().append(true).open(&b).unwrap();
            write!(f, "{{\"phase\":\"p\",\"ind").unwrap();
        }
        let out = dir.join("out.jsonl");
        let summary = merge_checkpoints(&[a, b], &out).unwrap();
        assert_eq!(summary.shards_read, 2);
        assert_eq!(summary.records, 3);
        assert_eq!(summary.duplicates, 1);
        // The merged file resumes cleanly with all three records.
        let log = CheckpointLog::resume(&out, &header).unwrap();
        assert_eq!(log.loaded_records(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_counts_header_only_shards_as_read_but_empty() {
        // A worker killed right after the header write leaves a shard
        // with a header and no records: the merge must treat it as a
        // present-but-empty shard, not a missing or corrupt one.
        let dir = temp_dir("header-only");
        let header = CheckpointHeader::new("h", 1, 1);
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        {
            let mut log = CheckpointLog::create(&a, &header).unwrap();
            log.append(&RunRecord {
                phase: "p".to_string(),
                index: 0,
                elapsed_micros: 1,
                status: RunStatus::Ok(7),
            })
            .unwrap();
        }
        CheckpointLog::create(&b, &header).unwrap();
        let out = dir.join("out.jsonl");
        let summary = merge_checkpoints(&[a, b], &out).unwrap();
        assert_eq!(summary.shards_read, 2);
        assert_eq!(summary.shards_missing, 0);
        assert_eq!(summary.records, 1);
        assert_eq!(summary.duplicates, 0);
        let log = CheckpointLog::resume(&out, &header).unwrap();
        assert_eq!(log.loaded_records(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_rejects_corrupt_middle_lines() {
        let dir = temp_dir("corrupt");
        let a = dir.join("a.jsonl");
        let header = CheckpointHeader::new("c", 1, 1);
        CheckpointLog::create(&a, &header).unwrap();
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().append(true).open(&a).unwrap();
            writeln!(f, "garbage").unwrap();
            writeln!(
                f,
                "{{\"phase\":\"p\",\"index\":0,\"elapsed_micros\":1,\"status\":{{\"Ok\":1}}}}"
            )
            .unwrap();
        }
        let err = merge_checkpoints(std::slice::from_ref(&a), &dir.join("o.jsonl")).unwrap_err();
        assert!(err.contains("corrupt"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

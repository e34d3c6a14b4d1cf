//! Plain-text rendering of tables and figure series, in the layout of the
//! paper's tables (percentages to one decimal, like Table 1's "7.3%").

use crate::engine::PhaseTime;
use crate::runner::{FailureMode, ModeCounts};
use crate::section6::ProgramCampaign;
use crate::session::Throughput;
use crate::source::SourceCampaign;

/// Render an aligned text table.
///
/// # Examples
///
/// ```
/// let t = swifi_campaign::report::render_table(
///     &["Program", "% Wrong"],
///     &[vec!["C.team1".into(), "7.3%".into()]],
/// );
/// assert!(t.contains("C.team1"));
/// assert!(t.starts_with("Program"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(cell);
            for _ in cell.chars().count()..widths[i] {
                line.push(' ');
            }
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    // saturating: an empty header list must yield an empty table, not an
    // underflow panic.
    let total: usize = widths.iter().sum::<usize>() + 2 * cols.saturating_sub(1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Format a percentage the way the paper prints them (one decimal, `%`).
pub fn pct(v: f64) -> String {
    if v != 0.0 && v < 0.1 {
        // Table 1 prints the tiny JB.team6 rate as "0.05%".
        format!("{v:.2}%")
    } else {
        format!("{v:.1}%")
    }
}

/// Render one failure-mode distribution as the four percentage cells used
/// by Figures 7–10.
pub fn mode_cells(counts: &ModeCounts) -> Vec<String> {
    FailureMode::ALL
        .iter()
        .map(|&m| pct(counts.pct(m)))
        .collect()
}

/// Headers matching [`mode_cells`].
pub const MODE_HEADERS: [&str; 4] = ["Correct", "Incorrect", "Hang", "Crash"];

/// One-line summary of a campaign's run-engine throughput, e.g.
/// `4200 runs in 1.3s (3230.8 runs/s, 61.2 Minstr/s), 3900 fired / 300 dormant`.
pub fn throughput_line(tp: &Throughput) -> String {
    format!(
        "{} runs in {:.1}s ({:.1} runs/s, {:.1} Minstr/s), {} fired / {} dormant",
        tp.runs,
        tp.elapsed_secs,
        tp.runs_per_sec(),
        tp.instrs_per_sec() / 1e6,
        tp.fired_runs,
        tp.dormant_runs
    )
}

/// One-line summary of the sessions' decode-cache behaviour, e.g.
/// `icache: 1204 lines built, 96 invalidated, 812 slow fetches (0.01% of 9.1M instrs)`.
pub fn decode_cache_line(tp: &Throughput) -> String {
    let slow_pct = if tp.engine.retired_instrs > 0 {
        tp.engine.slow_fetches as f64 * 100.0 / tp.engine.retired_instrs as f64
    } else {
        0.0
    };
    format!(
        "icache: {} lines built, {} invalidated, {} slow fetches ({:.2}% of {:.1}M instrs)",
        tp.engine.decode_lines_built,
        tp.engine.decode_invalidations,
        tp.engine.slow_fetches,
        slow_pct,
        tp.engine.retired_instrs as f64 / 1e6,
    )
}

/// One-line summary of prefix forking, e.g.
/// `prefix-fork: 40 snapshots, 3960 fork hits, 120 dormant short-circuits,
/// 6 golden passes, 0.2 MiB peak retained, 12.3M instrs skipped (57.4% of
/// total)`; the peak is the largest ladder one worker held.
pub fn prefix_fork_line(tp: &Throughput) -> String {
    let total = tp.engine.retired_instrs + tp.engine.prefix_instrs_skipped;
    let skipped_pct = if total > 0 {
        tp.engine.prefix_instrs_skipped as f64 * 100.0 / total as f64
    } else {
        0.0
    };
    format!(
        "prefix-fork: {} snapshots, {} fork hits, {} dormant short-circuits, {} golden passes, {:.1} MiB peak retained, {:.1}M instrs skipped ({:.1}% of total)",
        tp.engine.prefix_snapshots_built,
        tp.engine.prefix_fork_hits,
        tp.engine.prefix_dormant_short_circuits,
        tp.engine.prefix_golden_passes,
        tp.prefix_peak_bytes as f64 / f64::from(1 << 20),
        tp.engine.prefix_instrs_skipped as f64 / 1e6,
        skipped_pct,
    )
}

/// One-line summary of the block-translation layer, e.g.
/// `blocks: 412 built, 9120 hits, 1820 fallback dispatches, 12
/// invalidated, 78.4% of instrs in blocks`.
pub fn block_cache_line(tp: &Throughput) -> String {
    let block_pct = if tp.engine.retired_instrs > 0 {
        tp.engine.block_instrs as f64 * 100.0 / tp.engine.retired_instrs as f64
    } else {
        0.0
    };
    format!(
        "blocks: {} built, {} hits, {} fallback dispatches, {} invalidated, {:.1}% of instrs in blocks",
        tp.engine.blocks_built, tp.engine.block_hits, tp.engine.block_fallbacks, tp.engine.block_invalidations, block_pct,
    )
}

/// One-line per-phase wall-clock summary, e.g.
/// `phases: assign 120 items in 0.8s (150.0 items/s); check 40 items in 0.3s (133.3 items/s)`.
/// Empty string when no phases were timed (keeps legacy reports stable).
pub fn phase_times_line(phases: &[PhaseTime]) -> String {
    if phases.is_empty() {
        return String::new();
    }
    let cells: Vec<String> = phases
        .iter()
        .map(|p| {
            format!(
                "{} {} items in {:.1}s ({:.1} items/s)",
                p.phase,
                p.items,
                p.elapsed_secs,
                p.items_per_sec()
            )
        })
        .collect();
    format!("phases: {}", cells.join("; "))
}

/// The full report text of a §6 class campaign: the failure-mode table,
/// run totals, throughput/cache/phase lines, and abnormal records.
///
/// `swifi campaign` and the server's `submit` reply both render through
/// here, so a sharded campaign's merged report can be `diff`ed against
/// the single-process run byte-for-byte (the smoke scripts filter the
/// wall-clock lines, which are host noise by design).
pub fn class_campaign_report(c: &ProgramCampaign) -> String {
    let mut headers = vec!["Fault class"];
    headers.extend(MODE_HEADERS);
    let mut assign_row = vec!["assignment".to_string()];
    assign_row.extend(mode_cells(&c.assign_modes));
    let mut check_row = vec!["checking".to_string()];
    check_row.extend(mode_cells(&c.check_modes));
    let mut out = render_table(&headers, &[assign_row, check_row]);
    out.push_str(&format!(
        "total runs: {}, dormant: {}\n",
        c.total_runs, c.dormant_runs
    ));
    out.push_str(&format!("throughput: {}\n", throughput_line(&c.throughput)));
    out.push_str(&decode_cache_line(&c.throughput));
    out.push('\n');
    out.push_str(&block_cache_line(&c.throughput));
    out.push('\n');
    out.push_str(&prefix_fork_line(&c.throughput));
    out.push('\n');
    let phases = phase_times_line(&c.phase_times);
    if !phases.is_empty() {
        out.push_str(&phases);
        out.push('\n');
    }
    push_abnormal_lines(&mut out, &c.abnormal);
    out
}

/// The full report text of a source-mutation campaign (the
/// `swifi source-campaign` body below the banner line), shared with the
/// server for the same byte-equality reason as [`class_campaign_report`].
pub fn source_campaign_report(c: &SourceCampaign) -> String {
    let mut out = format!(
        "{} of {} possible mutants injected\n",
        c.selected_mutants, c.total_mutants
    );
    let mut headers = vec!["Operator", "ODC type"];
    headers.extend(MODE_HEADERS);
    let rows: Vec<Vec<String>> = c
        .by_operator
        .iter()
        .map(|(op, modes)| {
            let mut row = vec![op.id().to_string(), op.defect_type().to_string()];
            row.extend(mode_cells(modes));
            row
        })
        .collect();
    out.push_str(&render_table(&headers, &rows));
    out.push_str(&format!(
        "total runs: {}, dormant: {}\n",
        c.total_runs, c.dormant_runs
    ));
    out.push_str(&format!("throughput: {}\n", throughput_line(&c.throughput)));
    out.push_str(&decode_cache_line(&c.throughput));
    out.push('\n');
    out.push_str(&block_cache_line(&c.throughput));
    out.push('\n');
    let phases = phase_times_line(&c.phase_times);
    if !phases.is_empty() {
        out.push_str(&phases);
        out.push('\n');
    }
    push_abnormal_lines(&mut out, &c.abnormal);
    out
}

fn push_abnormal_lines(out: &mut String, abnormal: &[crate::engine::AbnormalRun]) {
    for a in abnormal {
        out.push_str(&format!(
            "abnormal: {}#{} — {} ({})\n",
            a.phase, a.index, a.message, a.detail
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionStats;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["A", "LongHeader"],
            &[
                vec!["xxxxxx".into(), "1".into()],
                vec!["y".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // The second column starts at the same offset in every row.
        let col = lines[0].find("LongHeader").unwrap();
        assert_eq!(lines[2].find('1').unwrap(), col);
        assert_eq!(lines[3].find('2').unwrap(), col);
    }

    #[test]
    fn empty_table_does_not_panic() {
        // Regression: the separator width computed `2 * (cols - 1)`,
        // which underflowed for a zero-column table.
        let t = render_table(&[], &[]);
        assert_eq!(t, "\n\n");
        let t = render_table(&["Only"], &[]);
        assert!(t.starts_with("Only"));
    }

    #[test]
    fn degenerate_throughput_never_prints_nan() {
        // Regression: empty / clean-only regions must render 0-valued
        // figures, not NaN% (division by zero runs or zero instructions).
        for line in [
            throughput_line(&Throughput::default()),
            decode_cache_line(&Throughput::default()),
            prefix_fork_line(&Throughput::default()),
            block_cache_line(&Throughput::default()),
        ] {
            assert!(!line.contains("NaN"), "{line}");
            assert!(!line.contains("inf"), "{line}");
        }
        // Slow fetches with zero retired instructions (clean-only region
        // measured on a reference-mode session): still no NaN.
        let odd = Throughput {
            engine: SessionStats {
                slow_fetches: 5,
                ..SessionStats::default()
            },
            ..Throughput::default()
        };
        assert!(!decode_cache_line(&odd).contains("NaN"));
        // And the percentage helper itself guards the empty distribution.
        assert_eq!(
            mode_cells(&ModeCounts::default()).join(" "),
            "0.0% 0.0% 0.0% 0.0%"
        );
    }

    #[test]
    fn pct_formats_like_the_paper() {
        assert_eq!(pct(7.31), "7.3%");
        assert_eq!(pct(0.05), "0.05%");
        assert_eq!(pct(0.0), "0.0%");
        assert_eq!(pct(100.0), "100.0%");
    }

    #[test]
    fn throughput_line_reports_rate() {
        let tp = Throughput {
            runs: 100,
            fired_runs: 90,
            dormant_runs: 10,
            elapsed_secs: 2.0,
            engine: SessionStats {
                retired_instrs: 8_000_000,
                ..SessionStats::default()
            },
            ..Throughput::default()
        };
        let line = throughput_line(&tp);
        assert!(line.contains("100 runs"), "{line}");
        assert!(line.contains("50.0 runs/s"), "{line}");
        assert!(line.contains("4.0 Minstr/s"), "{line}");
        assert!(line.contains("90 fired / 10 dormant"), "{line}");
    }

    #[test]
    fn decode_cache_line_reports_slow_fraction() {
        let tp = Throughput {
            engine: SessionStats {
                retired_instrs: 2_000_000,
                decode_lines_built: 1204,
                decode_invalidations: 96,
                slow_fetches: 20_000,
                ..SessionStats::default()
            },
            ..Throughput::default()
        };
        let line = decode_cache_line(&tp);
        assert!(line.contains("1204 lines built"), "{line}");
        assert!(line.contains("96 invalidated"), "{line}");
        assert!(line.contains("20000 slow fetches"), "{line}");
        assert!(line.contains("(1.00% of 2.0M instrs)"), "{line}");

        // Degenerate case: no instructions measured.
        let empty = decode_cache_line(&Throughput::default());
        assert!(empty.contains("0.00%"), "{empty}");
    }

    #[test]
    fn prefix_fork_line_reports_skipped_share() {
        let tp = Throughput {
            engine: SessionStats {
                retired_instrs: 1_000_000,
                prefix_snapshots_built: 40,
                prefix_fork_hits: 3960,
                prefix_instrs_skipped: 3_000_000,
                prefix_dormant_short_circuits: 120,
                prefix_golden_passes: 3,
                ..SessionStats::default()
            },
            prefix_peak_bytes: 3 << 19,
            ..Throughput::default()
        };
        let line = prefix_fork_line(&tp);
        assert!(line.contains("3 golden passes"), "{line}");
        assert!(line.contains("1.5 MiB peak retained"), "{line}");
        assert!(line.contains("40 snapshots"), "{line}");
        assert!(line.contains("3960 fork hits"), "{line}");
        assert!(line.contains("120 dormant short-circuits"), "{line}");
        assert!(!line.contains("golden hits"), "{line}");
        assert!(
            line.contains("3.0M instrs skipped (75.0% of total)"),
            "{line}"
        );
    }

    #[test]
    fn block_cache_line_reports_block_share() {
        let tp = Throughput {
            engine: SessionStats {
                retired_instrs: 2_000_000,
                blocks_built: 412,
                block_hits: 9120,
                block_instrs: 1_500_000,
                block_fallbacks: 1820,
                block_invalidations: 12,
                ..SessionStats::default()
            },
            ..Throughput::default()
        };
        let line = block_cache_line(&tp);
        assert!(line.contains("412 built"), "{line}");
        assert!(line.contains("9120 hits"), "{line}");
        assert!(line.contains("1820 fallback dispatches"), "{line}");
        assert!(line.contains("12 invalidated"), "{line}");
        assert!(line.contains("75.0% of instrs in blocks"), "{line}");
    }

    #[test]
    fn phase_times_line_lists_each_phase() {
        assert_eq!(phase_times_line(&[]), "");
        let line = phase_times_line(&[
            PhaseTime {
                phase: "assign".into(),
                items: 120,
                elapsed_secs: 0.8,
            },
            PhaseTime {
                phase: "check".into(),
                items: 40,
                elapsed_secs: 0.3,
            },
        ]);
        assert!(line.starts_with("phases: "), "{line}");
        assert!(
            line.contains("assign 120 items in 0.8s (150.0 items/s)"),
            "{line}"
        );
        assert!(line.contains("; check 40 items"), "{line}");
    }

    #[test]
    fn mode_cells_cover_all_modes() {
        let mut c = ModeCounts::default();
        c.add(FailureMode::Correct);
        c.add(FailureMode::Crash);
        let cells = mode_cells(&c);
        assert_eq!(cells, vec!["50.0%", "0.0%", "0.0%", "50.0%"]);
    }
}

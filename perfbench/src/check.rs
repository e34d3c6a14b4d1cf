//! Correctness: each measured report against a reference report.
//!
//! The reference is the same campaign computed outside the timed region
//! with every execution tier off (`no_prune`, `no_prefix_fork`,
//! `no_block_cache`): a cold reference interpreter run per fault and
//! input. A measured campaign agrees with it when its fingerprint — total
//! runs, fired and dormant counts, and failure-mode counts per fault
//! class and per error type — is identical. Every run of a campaign that
//! disagrees counts as failed.

use swifi_campaign::{ModeCounts, ProgramCampaign};

/// Report lines that carry wall-clock or execution-strategy counters;
/// everything else in a class-campaign report is seed-deterministic.
const VOLATILE_PREFIXES: [&str; 6] = [
    "throughput:",
    "icache:",
    "blocks:",
    "prefix-fork:",
    "prune:",
    "phases:",
];

fn modes(m: &ModeCounts) -> String {
    format!(
        "correct={} incorrect={} hang={} crash={}",
        m.correct, m.incorrect, m.hang, m.crash
    )
}

/// The seed-deterministic result of one campaign, one fact per line.
pub fn fingerprint(c: &ProgramCampaign) -> Vec<String> {
    let p = &c.program;
    let mut out = vec![
        format!(
            "{p} runs={} fired={} dormant={} abnormal={}",
            c.total_runs,
            c.total_runs - c.dormant_runs,
            c.dormant_runs,
            c.abnormal.len()
        ),
        format!("{p} assign {}", modes(&c.assign_modes)),
        format!("{p} check {}", modes(&c.check_modes)),
    ];
    out.extend(
        c.by_assign_type
            .iter()
            .map(|(t, m)| format!("{p} assign.{t:?} {}", modes(m))),
    );
    out.extend(
        c.by_check_type
            .iter()
            .map(|(t, m)| format!("{p} check.{t:?} {}", modes(m))),
    );
    out
}

/// Runs of a campaign to count as failed: all of them when its
/// fingerprint differs from the reference's, else its abnormal items'
/// runs (an abnormal item has no runs in the totals, so it counts as one)
/// plus the pruning oracle's mispredictions.
pub fn failed_runs(reference: &[String], got: &ProgramCampaign, mispredicts: u64) -> u64 {
    if fingerprint(got) != reference {
        got.total_runs.max(1)
    } else {
        got.abnormal.len() as u64 + mispredicts
    }
}

/// A report without its wall-clock and strategy-counter lines.
pub fn report_body(text: &str) -> String {
    text.lines()
        .filter(|l| !VOLATILE_PREFIXES.iter().any(|p| l.starts_with(p)))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Run totals printed in a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportTotals {
    /// Injected runs.
    pub runs: u64,
    /// Runs in which the fault fired.
    pub fired: u64,
    /// Runs in which the fault stayed dormant.
    pub dormant: u64,
}

/// Parse `throughput: R runs in Ts (X runs/s, Y Minstr/s), F fired / D dormant`.
///
/// Only the counts are read. The time on the line is never used: in
/// sharded mode it times only the final replay pass.
pub fn parse_throughput(line: &str) -> Option<ReportTotals> {
    let rest = line.strip_prefix("throughput: ")?;
    let (runs, rest) = rest.split_once(" runs in ")?;
    let (_, counts) = rest.rsplit_once("), ")?;
    let (fired, dormant) = counts.split_once(" fired / ")?;
    Some(ReportTotals {
        runs: runs.trim().parse().ok()?,
        fired: fired.trim().parse().ok()?,
        dormant: dormant.strip_suffix(" dormant")?.trim().parse().ok()?,
    })
}

/// The totals of a report: its `throughput:` counts, which must agree
/// with its `total runs: R, dormant: D` line.
pub fn report_totals(text: &str) -> Option<ReportTotals> {
    let totals = text.lines().find_map(parse_throughput)?;
    let line = text.lines().find(|l| l.starts_with("total runs: "))?;
    let (runs, dormant) = line
        .strip_prefix("total runs: ")?
        .split_once(", dormant: ")?;
    let agree =
        runs.trim().parse() == Ok(totals.runs) && dormant.trim().parse() == Ok(totals.dormant);
    agree.then_some(totals)
}

/// Reference fingerprint lines plus, for the service workload, the
/// in-process report of each program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reference {
    /// Fingerprint lines of every campaign of the workload, in order.
    pub fingerprint: Vec<String>,
    /// `(program, report body)` of the in-process default-tier run.
    pub reports: Vec<(String, String)>,
}

impl Reference {
    /// The fingerprint lines of one program.
    pub fn of(&self, program: &str) -> Vec<String> {
        let prefix = format!("{program} ");
        self.fingerprint
            .iter()
            .filter(|l| l.starts_with(&prefix))
            .cloned()
            .collect()
    }

    /// The in-process report body of one program.
    pub fn report(&self, program: &str) -> Option<&str> {
        self.reports
            .iter()
            .find(|(p, _)| p == program)
            .map(|(_, r)| r.as_str())
    }

    /// Serialise: `fp <line>` and `report <program>\t<line>` lines.
    pub fn to_text(&self) -> String {
        let mut out: String = self
            .fingerprint
            .iter()
            .map(|l| format!("fp {l}\n"))
            .collect();
        for (program, body) in &self.reports {
            for l in body.lines() {
                out.push_str(&format!("report {program}\t{l}\n"));
            }
        }
        out
    }

    /// Parse [`Reference::to_text`] output.
    ///
    /// # Errors
    ///
    /// A line of any other shape.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut r = Reference::default();
        for line in text.lines() {
            if let Some(fp) = line.strip_prefix("fp ") {
                r.fingerprint.push(fp.to_string());
            } else if let Some((program, l)) = line
                .strip_prefix("report ")
                .and_then(|x| x.split_once('\t'))
            {
                match r.reports.last_mut() {
                    Some((p, body)) if p == program => body.push_str(&format!("{l}\n")),
                    _ => r.reports.push((program.to_string(), format!("{l}\n"))),
                }
            } else {
                return Err(format!("malformed reference line `{line}`"));
            }
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swifi_campaign::section6::{class_campaign, CampaignScale};

    fn small_campaign() -> ProgramCampaign {
        let target = swifi_programs::program("JB.team11").expect("roster");
        class_campaign(
            &target,
            CampaignScale {
                inputs_per_fault: 2,
            },
            7,
        )
    }

    #[test]
    fn an_identical_report_has_no_failed_runs() {
        let c = small_campaign();
        assert_eq!(failed_runs(&fingerprint(&c), &c, 0), 0);
        assert_eq!(failed_runs(&fingerprint(&c), &c, 3), 3);
    }

    #[test]
    fn a_perturbed_report_counts_every_run_as_failed() {
        let c = small_campaign();
        let reference = fingerprint(&c);
        let mut moved = c.clone();
        // One run moves from Correct to Incorrect in one error type.
        let (_, m) = moved
            .by_assign_type
            .iter_mut()
            .next()
            .expect("assign types");
        m.correct -= 1;
        m.incorrect += 1;
        assert_eq!(failed_runs(&reference, &moved, 0), c.total_runs);
        let mut dormant = c.clone();
        dormant.dormant_runs += 1;
        assert_eq!(failed_runs(&reference, &dormant, 0), c.total_runs);
        let mut fewer = c;
        fewer.total_runs -= 1;
        assert!(failed_runs(&reference, &fewer, 0) > 0);
    }

    #[test]
    fn throughput_line_counts_parse_and_its_time_is_ignored() {
        let t = parse_throughput(
            "throughput: 9300 runs in 0.0s (115017871.1 runs/s, 12.0 Minstr/s), 9300 fired / 0 dormant",
        );
        assert_eq!(
            t,
            Some(ReportTotals {
                runs: 9300,
                fired: 9300,
                dormant: 0
            })
        );
        assert_eq!(
            parse_throughput("throughput: 1280 runs in 12.6s (101.7 runs/s, 170.0 Minstr/s), 1200 fired / 80 dormant")
                .map(|t| (t.fired, t.dormant)),
            Some((1200, 80))
        );
        assert_eq!(parse_throughput("total runs: 5, dormant: 0"), None);
        assert_eq!(
            parse_throughput("throughput: x runs in 1s (1 runs/s), 1 fired / 0 dormant"),
            None
        );
    }

    #[test]
    fn report_totals_require_both_lines_to_agree() {
        let c = small_campaign();
        let text = swifi_campaign::report::class_campaign_report(&c);
        let t = report_totals(&text).expect("totals");
        assert_eq!((t.runs, t.dormant), (c.total_runs, c.dormant_runs));
        let broken = text.replace(
            &format!("total runs: {}", c.total_runs),
            &format!("total runs: {}", c.total_runs + 1),
        );
        assert_eq!(report_totals(&broken), None);
    }

    #[test]
    fn report_body_drops_only_volatile_lines() {
        let c = small_campaign();
        let body = report_body(&swifi_campaign::report::class_campaign_report(&c));
        assert!(body.contains("total runs: "));
        assert!(body.contains("assignment"));
        for p in VOLATILE_PREFIXES {
            assert!(!body.lines().any(|l| l.starts_with(p)), "{p}");
        }
    }

    #[test]
    fn reference_text_round_trips() {
        let c = small_campaign();
        let r = Reference {
            fingerprint: fingerprint(&c),
            reports: vec![(
                "JB.team11".to_string(),
                report_body(&swifi_campaign::report::class_campaign_report(&c)),
            )],
        };
        assert_eq!(Reference::parse(&r.to_text()), Ok(r.clone()));
        assert_eq!(r.of("JB.team11"), fingerprint(&c));
        assert!(r.of("JB.team6").is_empty());
        assert!(Reference::parse("bogus").is_err());
    }
}

//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p quicert-bench --bin repro            # 20k domains
//! cargo run --release -p quicert-bench --bin repro -- 100000  # bigger world
//! cargo run --release -p quicert-bench --bin repro -- 20000 42  # custom seed
//! cargo run --release -p quicert-bench --bin repro -- 20000 42 8  # 8 workers
//! ```
//!
//! The third argument is the scan worker count (0 = one per core, 1 =
//! serial); when absent, a `QUICERT_WORKERS` environment override is
//! honored (same semantics), so at-scale runs are tunable without code or
//! command-line edits. The report is bit-for-bit identical at any setting.
//!
//! `--ticks N` (or `QUICERT_TICKS=N`) additionally drives the resident
//! campaign service through `N` churn ticks after the report, printing
//! per-tick delta-scan stats to stderr — stdout stays the golden report.
//! `QUICERT_METRICS=1` prints the campaign's metrics registry, in
//! Prometheus text format, to stderr after the report.
//!
//! An argument or override that does not parse — or a fourth positional
//! argument — is named on stderr with the usage line, and `repro` exits
//! with status 2 before it builds a world.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::process::ExitCode;
use std::str::FromStr;

use quicert_core::{full_report, Campaign, CampaignConfig, ReportOptions};

const USAGE: &str = "usage: repro [domains] [seed] [workers] [--ticks N]";

/// What the command line and the environment ask for.
#[derive(Debug, PartialEq)]
struct Args {
    domains: usize,
    seed: u64,
    /// Scan workers (0 = one per core).
    workers: usize,
    /// Resident-service ticks to drive after the report.
    ticks: Option<u64>,
}

/// `value` parsed, or an error naming `what` and the value.
fn parsed<T: FromStr>(what: &str, value: &str) -> Result<T, String> {
    value
        .trim()
        .parse()
        .map_err(|_| format!("{what}: cannot parse {value:?}"))
}

/// `value` parsed when present, or an error naming `what` and the value.
fn optional<T: FromStr>(what: &str, value: Option<impl AsRef<str>>) -> Result<Option<T>, String> {
    value.map(|value| parsed(what, value.as_ref())).transpose()
}

/// Positional args (domains, seed, workers) with one flag: `--ticks N` (or
/// `--ticks=N`) may appear anywhere and is consumed before positional
/// parsing. `env` reads `QUICERT_WORKERS` and `QUICERT_TICKS`, which an
/// argument overrides. A value that does not parse, a missing `--ticks`
/// value or a fourth positional argument is an error naming it — never a
/// silent default.
fn parse_args(
    args: impl IntoIterator<Item = String>,
    env: impl Fn(&str) -> Option<String>,
) -> Result<Args, String> {
    let mut ticks = None;
    let mut positional: Vec<String> = Vec::new();
    let mut raw = args.into_iter();
    while let Some(arg) = raw.next() {
        if arg == "--ticks" {
            let value = raw.next().ok_or("--ticks: missing value")?;
            ticks = Some(parsed("--ticks", &value)?);
        } else if let Some(value) = arg.strip_prefix("--ticks=") {
            ticks = Some(parsed("--ticks", value)?);
        } else {
            positional.push(arg);
        }
    }
    if let Some(extra) = positional.get(3) {
        return Err(format!("unexpected argument {extra:?}"));
    }
    let env_workers = optional("QUICERT_WORKERS", env("QUICERT_WORKERS"))?;
    let env_ticks = optional("QUICERT_TICKS", env("QUICERT_TICKS"))?;
    Ok(Args {
        domains: optional("domains", positional.first())?.unwrap_or(20_000),
        seed: optional("seed", positional.get(1))?.unwrap_or(0xC04E_2022),
        workers: optional("workers", positional.get(2))?
            .or(env_workers)
            .unwrap_or(0),
        ticks: ticks.or(env_ticks),
    })
}

fn main() -> ExitCode {
    let env = |name: &str| std::env::var(name).ok();
    let Args {
        domains,
        seed,
        workers,
        ticks,
    } = match parse_args(std::env::args().skip(1), env) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("repro: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    eprintln!(
        "generating world: {domains} domains, seed {seed:#x}, workers {workers} (0 = auto) ..."
    );
    let campaign = Campaign::new(
        CampaignConfig::standard()
            .with_domains(domains)
            .with_seed(seed)
            .with_workers(workers),
    );
    eprintln!(
        "scanning with {} worker thread(s) ...",
        campaign.engine().workers(),
    );

    let options = ReportOptions {
        telescope_per_provider: 20,
        fig11_reps: 5,
        compression_stride: (domains / 2_000).max(1),
        full_sweep: true,
        guidance_mitigation: true,
        network_profiles: true,
        resumption: true,
        pq_eras: true,
        population_scale: true,
        chaos: true,
        churn: true,
        // The paper-scale ladder: 10k / 100k / 1M domains streamed in
        // bounded memory.
        scale_sizes: quicert_core::experiments::scale::PAPER_SCALE_SIZES,
    };
    // Pump observability: scan the campaign's own population under its
    // default scenario and report what the pump workers did — first, so
    // that the stats are this pass's and not a later one's. The report's
    // default-size figures read the summary this pass caches. Stats go to
    // stderr so stdout stays the golden report.
    campaign.engine().quicreach(campaign.scenario());
    if let Some(stats) = campaign.engine().pump_stats() {
        let totals = stats.totals();
        eprintln!(
            "stream pump: {} worker(s) of {} requested, {} chunks, {} records, {:.3}s busy (max worker {:.3}s)",
            stats.effective_workers,
            stats.requested_workers,
            totals.chunks_claimed,
            totals.records_folded,
            totals.fold_seconds,
            stats.max_fold_seconds(),
        );
        eprintln!(
            "stream memo: {} hits, {} misses, {} distinct classes across workers",
            totals.memo_hits, totals.memo_misses, totals.distinct_classes,
        );
        for (i, w) in stats.workers.iter().enumerate() {
            eprintln!(
                "  worker {i}: {} chunks, {} records, {:.3}s, memo {}/{} ({} classes)",
                w.chunks_claimed,
                w.records_folded,
                w.fold_seconds,
                w.memo_hits,
                w.memo_misses,
                w.distinct_classes
            );
        }
    }

    let report = full_report(&campaign, options);
    println!("{report}");

    // The full campaign registry — every counter and histogram the scans
    // touched — renders to stderr on request; stdout stays the golden
    // report byte-for-byte either way.
    if std::env::var("QUICERT_METRICS").map(|v| v == "1") == Ok(true) {
        eprint!(
            "{}",
            campaign.engine().metrics_registry().render_prometheus()
        );
    }

    // Resident-service mode: drive the era-migration churn timeline for
    // `--ticks N` ticks through the delta-scan path, reporting what each
    // tick cost. All of it goes to stderr.
    if let Some(ticks) = ticks.filter(|&t| t > 0) {
        eprintln!("churn service: advancing {ticks} tick(s) through delta scans ...");
        let mut service = quicert_core::CampaignService::new(
            quicert_core::experiments::churn::era_migration_config(&campaign),
        );
        for tick in 0..=ticks {
            let snapshot = service.snapshot_at(tick);
            let reachable = snapshot.reach.classes.reachable();
            let Some(&stats) = service.tick_log().last() else {
                continue;
            };
            eprintln!(
                "  tick {}: {} event(s), {} rank(s) churned{}, probed {}/{} ({} of {} segments dirty), {} reachable",
                stats.tick,
                stats.events,
                stats.changed_ranks,
                if stats.all_changed {
                    " [era migration: all segments dirty]"
                } else {
                    ""
                },
                stats.probed,
                stats.full_probe_count,
                stats.dirty_segments,
                stats.total_segments,
                reachable,
            );
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], env: &[(&str, &str)]) -> Result<Args, String> {
        let args = args.iter().map(|arg| arg.to_string());
        let env = |name: &str| {
            let set = env.iter().find(|(key, _)| *key == name);
            set.map(|(_, value)| value.to_string())
        };
        parse_args(args, env)
    }

    #[test]
    fn arguments_override_the_environment_and_defaults_fill_the_rest() {
        let args = |domains, seed, workers, ticks| Args {
            domains,
            seed,
            workers,
            ticks,
        };
        assert_eq!(parse(&[], &[]), Ok(args(20_000, 0xC04E_2022, 0, None)));
        let env = [("QUICERT_WORKERS", "3"), ("QUICERT_TICKS", "5")];
        assert_eq!(
            parse(&["500"], &env),
            Ok(args(500, 0xC04E_2022, 3, Some(5)))
        );
        assert_eq!(
            parse(&["--ticks", "2", "500", "7", "1"], &env),
            Ok(args(500, 7, 1, Some(2)))
        );
        assert_eq!(
            parse(&["500", "--ticks=4"], &[]),
            Ok(args(500, 0xC04E_2022, 0, Some(4)))
        );
    }

    #[test]
    fn an_unparsable_value_is_named_not_defaulted() {
        let rejects = |args: &[&str], env: &[(&str, &str)], named: &str| {
            let message = parse(args, env).expect_err("rejected");
            assert!(message.contains(named), "{message:?} names {named:?}");
        };
        rejects(&["500", "4x2", "1"], &[], "\"4x2\"");
        rejects(&["500", "1", "1", "--ticks", "x"], &[], "\"x\"");
        rejects(&["--ticks"], &[], "--ticks");
        rejects(&["--ticks=-1"], &[], "\"-1\"");
        rejects(&["5e3"], &[], "domains");
        rejects(&["500", "1", "1", "9"], &[], "\"9\"");
        rejects(&["500"], &[("QUICERT_WORKERS", "two")], "QUICERT_WORKERS");
        rejects(&["500"], &[("QUICERT_TICKS", "1.5")], "QUICERT_TICKS");
    }
}

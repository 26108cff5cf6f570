//! The pipeline benchmark: one command per workload, printing every
//! metric by name with its unit and checking the program's outputs.
//!
//! ```text
//! pipebench --workload <serve_warm|prepare_cold|sample_bulk> --seed N
//!           --seconds S --trace <0|1>
//! pipebench --compare RUN_A RUN_B
//! ```
//!
//! The last line of standard output is the result object. Each run is
//! also saved, with the host fingerprint, under `pipebench/results/`;
//! `--compare` diffs two saved runs and refuses when their hosts differ.
//! See `pipebench/README.md` for the workloads and metrics.

mod bulk;
mod cold;
mod queries;
mod report;
mod schedule;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 3;

/// The end-to-end metrics every untraced run prints, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("p50_us", "us"),
    ("rate_per_s", "1/s"),
];

/// The per-layer metrics every traced run prints, with their units.
const PER_LAYER: [(&str, &str); 89] = [
    ("error_rate", "ratio"),
    ("warm_p50_us.light", "us"),
    ("warm_p99_us.light", "us"),
    ("warm_p999_us.light", "us"),
    ("warm_samples.light", "count"),
    ("warm_beyond_p99.light", "count"),
    ("warm_p50_us.heavy", "us"),
    ("warm_p99_us.heavy", "us"),
    ("warm_p999_us.heavy", "us"),
    ("warm_samples.heavy", "count"),
    ("warm_beyond_p99.heavy", "count"),
    ("warm_max_rps", "1/s"),
    ("warm_sustained.light", "count"),
    ("warm_sustained.heavy", "count"),
    ("ladder.shed", "count"),
    ("cold_first_sample_ms.geomean", "ms"),
    ("cold_suite_s", "s"),
    ("reload_suite_ms", "ms"),
    ("plans_per_s.u64", "1/s"),
    ("plans_per_s.u128", "1/s"),
    ("plans_per_s.nat", "1/s"),
    ("sql.parse_us", "us"),
    ("datagen.spec_build_us", "us"),
    ("datagen.build_memo_ms", "ms"),
    ("service.lookup_us", "us"),
    ("service.hit_ratio.warm", "ratio"),
    ("service.hit_ratio.cold", "ratio"),
    ("service.prepare_ms", "ms"),
    ("threadpool.resolve_us", "us"),
    ("sample.fill_us.k1", "us"),
    ("sample.fill_us.k16", "us"),
    ("sample.fill_us.k64", "us"),
    ("sample.unrank_us", "us"),
    ("sample.draw_ns.u64", "ns"),
    ("sample.draw_ns.u128", "ns"),
    ("sample.draw_ns.nat", "ns"),
    ("sample.fill_ns_per_plan.u64.t1", "ns"),
    ("sample.fill_ns_per_plan.u64.tN", "ns"),
    ("sample.fill_ns_per_plan.u128.t1", "ns"),
    ("sample.fill_ns_per_plan.u128.tN", "ns"),
    ("sample.fill_ns_per_plan.nat.t1", "ns"),
    ("sample.fill_ns_per_plan.nat.tN", "ns"),
    ("sample.scaling.u64", "ratio"),
    ("sample.scaling.u128", "ratio"),
    ("sample.scaling.nat", "ratio"),
    ("sample.nodes_per_plan.u64", "count"),
    ("sample.nodes_per_plan.u128", "count"),
    ("sample.nodes_per_plan.nat", "count"),
    ("batch.bytes.u64", "bytes"),
    ("batch.bytes.u128", "bytes"),
    ("batch.bytes.nat", "bytes"),
    ("cost.ns_per_plan.u64", "ns"),
    ("cost.ns_per_plan.u128", "ns"),
    ("cost.ns_per_plan.nat", "ns"),
    ("optimizer.optimize_ms", "ms"),
    ("optimizer.best_ms", "ms"),
    ("memo.exprs", "count"),
    ("links.build_ms", "ms"),
    ("links.ns_per_expr", "ns"),
    ("counts.compute_ms", "ms"),
    ("counts.ns_per_expr", "ns"),
    ("links.build_ms.setup", "ms"),
    ("counts.compute_ms.setup", "ms"),
    ("artifact.encode_ms", "ms"),
    ("artifact.save_ms", "ms"),
    ("artifact.bytes", "bytes"),
    ("artifact.load_ms", "ms"),
    ("artifact.reload_speedup", "ratio"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_us", "us"),
    ("wire.reply_encode_us", "us"),
    ("wire.reply_bytes", "bytes"),
    ("state.handle_us.sample_batch", "us"),
    ("state.handle_us.unrank", "us"),
    ("state.handle_us.count", "us"),
    ("state.handle_us.best", "us"),
    ("reactor.wait_us.p50", "us"),
    ("reactor.wait_us.p99", "us"),
    ("server.shed_queue", "count"),
    ("server.shed_prepare", "count"),
    ("server.misses", "count"),
    ("loadgen.late_us.p50", "us"),
    ("loadgen.late_us.p99", "us"),
    ("ledger.unaccounted_pct.serve_warm", "%"),
    ("ledger.unaccounted_pct.prepare_cold", "%"),
    ("ledger.unaccounted_pct.sample_bulk", "%"),
    ("trace.overhead_pct.serve_warm", "%"),
    ("trace.overhead_pct.prepare_cold", "%"),
    ("trace.overhead_pct.sample_bulk", "%"),
];

/// Orders `outcome`'s metrics as `names` lists them. A missing metric,
/// one outside the list, or one with another unit is a bug in this
/// benchmark.
fn conform(outcome: &mut report::Outcome, names: &[(&str, &'static str)]) {
    let mut got = std::mem::take(&mut outcome.metrics);
    for &(name, unit) in names {
        let i = got
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("no workload reported {name}"));
        let m = got.remove(i);
        assert_eq!(m.unit, unit, "unit of {name}");
        outcome.metrics.push(m);
    }
    let extra: Vec<&str> = got.iter().map(|m| m.name.as_str()).collect();
    assert!(extra.is_empty(), "unlisted metrics {extra:?}");
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pipebench --workload <serve_warm|prepare_cold|sample_bulk> --seed N \
         --seconds S --trace <0|1>\n       pipebench --compare RUN_A RUN_B"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        return match args.get(1..3) {
            Some([a, b]) => match report::compare(Path::new(a), Path::new(b)) {
                Ok(table) => {
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("pipebench: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => usage(),
        };
    }
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        flag("--workload"),
        flag("--seed").and_then(|s| s.parse::<u64>().ok()),
        flag("--seconds").and_then(|s| s.parse::<f64>().ok()),
        flag("--trace").and_then(|s| s.parse::<u8>().ok()),
    ) else {
        return usage();
    };
    let trace = trace == 1;
    let run: fn(u64, f64, bool, usize) -> report::Outcome = match workload.as_str() {
        "serve_warm" => serve::run,
        "prepare_cold" => cold::run,
        "sample_bulk" => bulk::run,
        _ => return usage(),
    };
    // A traced run covers the whole pipeline, whichever workload is
    // named: it runs the traced part of every workload for a third of
    // the time each, so every layer's metric is measured on the inputs
    // of the workload that loads it. Set-up time is not reported there,
    // so one set-up suffices.
    let mut outcome = if trace {
        let mut all = report::Outcome::default();
        for part in [serve::run, cold::run, bulk::run] {
            let o = part(seed, seconds / 3.0, true, 1);
            all.attempted += o.attempted;
            all.failed += o.failed;
            all.metrics.extend(o.metrics);
        }
        all
    } else {
        run(seed, seconds, false, SETUPS)
    };
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    if trace {
        outcome.put("error_rate", error_rate, "ratio");
        conform(&mut outcome, &PER_LAYER);
    } else {
        outcome.put("ok_ratio", 1.0 - error_rate, "ratio");
        outcome.put("peak_rss_mb", report::peak_rss_mb(), "MB");
        conform(&mut outcome, &END_TO_END);
    }
    let result = report::result_json(&outcome);
    let saved = results_dir().join(format!(
        "{workload}-seed{seed}-trace{}.json",
        u8::from(trace)
    ));
    if let Err(e) = std::fs::create_dir_all(results_dir())
        .and_then(|()| std::fs::write(&saved, report::saved_run(&report::fingerprint(), &result)))
    {
        eprintln!("pipebench: could not save {}: {e}", saved.display());
    }
    println!("{result}");
    ExitCode::SUCCESS
}

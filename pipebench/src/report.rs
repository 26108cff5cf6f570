//! Results: metrics, the host fingerprint, the result line, and the
//! fingerprint-checked comparison of two saved runs.

use std::fmt::Write as _;
use std::path::Path;

/// One named measurement.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured part of the run.
    pub attempted: u64,
    /// Operations that failed: error replies, protocol errors, and
    /// outputs that failed a check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records an output check; a failing one counts as a failed
    /// operation and is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("pipebench: check failed: {}", what());
        }
    }
}

/// Runs `setup` `n` times (at least once), dropping each result before
/// the next set-up starts. Returns the last result and the median time.
pub fn median_setup<T>(n: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("ran at least once"),
        crate::stats::median(&times),
    )
}

/// The host a run came from. Absolute numbers are only comparable
/// between runs with equal fingerprints.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let threads = std::env::var("PLANSAMPLE_THREADS").unwrap_or_default();
    vec![
        ("cpu", cpu),
        ("nproc", nproc.to_string()),
        ("rustc", rustc),
        ("kernel", kernel),
        ("plansample_threads", threads),
    ]
}

/// `VmHWM` of this process in MB: the peak resident set.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result object: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// A saved run: the fingerprint on the first line, the result on the
/// second.
pub fn saved_run(fp: &[(&'static str, String)], result: &str) -> String {
    let fields: Vec<String> = fp
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}\n{result}\n", fields.join(", "))
}

/// Pulls `"name": {"value": X` pairs out of a result line.
fn parse_metrics(result: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = result;
    while let Some(at) = rest.find(": {\"value\": ") {
        let name_end = rest[..at].rfind('"').unwrap_or(0);
        let name_start = rest[..name_end].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..name_end].to_string();
        let tail = &rest[at + ": {\"value\": ".len()..];
        let end = tail.find(',').unwrap_or(tail.len());
        if let Ok(v) = tail[..end].trim().parse::<f64>() {
            out.push((name, v));
        }
        rest = &tail[end..];
    }
    out
}

/// Compares two saved runs metric by metric. Refuses, with an error,
/// when their host fingerprints differ: absolute numbers from
/// different hosts say nothing about the code.
pub fn compare(a: &Path, b: &Path) -> Result<String, String> {
    let read = |p: &Path| -> Result<(String, String), String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        let mut lines = text.lines();
        match (lines.next(), lines.next()) {
            (Some(fp), Some(res)) => Ok((fp.to_string(), res.to_string())),
            _ => Err(format!("{}: not a saved run", p.display())),
        }
    };
    let (fp_a, res_a) = read(a)?;
    let (fp_b, res_b) = read(b)?;
    if fp_a != fp_b {
        return Err(format!(
            "refusing to compare runs from different hosts:\n  {fp_a}\n  {fp_b}"
        ));
    }
    let after = parse_metrics(&res_b);
    let mut out = String::new();
    for (name, va) in parse_metrics(&res_a) {
        if let Some((_, vb)) = after.iter().find(|(n, _)| *n == name) {
            let change = if va != 0.0 {
                (vb / va - 1.0) * 100.0
            } else {
                0.0
            };
            writeln!(out, "{name:40} {va:>16.4} {vb:>16.4} {change:>+8.2}%").unwrap();
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_comparison_parser() {
        let mut o = Outcome::default();
        o.put("p50_us", 12.5, "us");
        o.put("setup_s", 0.25, "s");
        let line = result_json(&o);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert_eq!(
            parse_metrics(&line),
            vec![("p50_us".to_string(), 12.5), ("setup_s".to_string(), 0.25)]
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(true, || unreachable!());
        o.check(false, || "mismatch".into());
        assert_eq!(o.failed, 1);
        assert!(result_json(&o).starts_with("{\"correct\": false"));
    }

    #[test]
    fn runs_from_different_hosts_are_not_compared() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tmp")
            .join(format!("cmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut o = Outcome::default();
        o.put("x", 2.0, "s");
        let res = result_json(&o);
        let host = |cpu: &str| vec![("cpu", cpu.to_string())];
        let (a, b, c) = (dir.join("a"), dir.join("b"), dir.join("c"));
        std::fs::write(&a, saved_run(&host("one"), &res)).unwrap();
        std::fs::write(&b, saved_run(&host("one"), &res)).unwrap();
        std::fs::write(&c, saved_run(&host("two"), &res)).unwrap();
        assert!(compare(&a, &b).unwrap().contains("+0.00%"));
        assert!(compare(&a, &c).unwrap_err().contains("different hosts"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

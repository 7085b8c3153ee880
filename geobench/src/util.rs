//! Small shared helpers: order statistics, process memory, host facts and
//! the result line.

use std::time::Instant;

/// Median of a sample (mean of the two middle values for an even count).
/// `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile of an ascending sample: the value at rank
/// `ceil(p/100 · n)`. `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MB (`VmHWM`), if the kernel
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time counters of the whole machine from `/proc/stat`: the share the
/// hypervisor gave to other guests ("steal") tells a measurement taken while
/// the host was contended from one of the program.
#[derive(Debug, Clone, Copy)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    pub fn now() -> Option<CpuTicks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        // user nice system idle iowait irq softirq steal
        (fields.len() == 8).then(|| CpuTicks {
            steal: fields[7],
            total: fields.iter().sum(),
        })
    }

    /// Share of the machine's CPU time stolen from `self` until `later`.
    pub fn steal_share(self, later: CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// A measured unit (a study pipeline round, a serve load round) during which
/// the host stole more than this share of the machine's CPU time is measured
/// again, up to a per-workload number of times: such a unit times the host,
/// not the program. On the reference host a calm unit sees 0–4% steal; a
/// study round that saw 17% took 43% longer than the next one at 0%.
pub const CONTENDED: f64 = 0.05;

/// The host's steal share since `start` (0 where the kernel does not say).
pub fn steal_since(start: Option<CpuTicks>) -> f64 {
    match (start, CpuTicks::now()) {
        (Some(a), Some(b)) => a.steal_share(b),
        _ => 0.0,
    }
}

/// Waits before measured units until the host is calm, within a per-run
/// budget: a contended spell lasts minutes, so waiting out a short one is
/// cheaper than measuring a unit again.
pub struct CalmGate {
    waited: std::time::Duration,
    budget: std::time::Duration,
}

impl CalmGate {
    pub fn new(budget: std::time::Duration) -> CalmGate {
        CalmGate {
            waited: std::time::Duration::ZERO,
            budget,
        }
    }

    /// Return once a half-second busy probe on every CPU sees the host
    /// steal at most `CONTENDED` of the machine's CPU time, or once the
    /// budget is spent. (An idle guest sees little steal even on a busy
    /// host, so the probe has to keep the CPUs busy.)
    pub fn wait(&mut self) {
        let started = Instant::now();
        loop {
            let ticks = CpuTicks::now();
            let probe_end = Instant::now() + std::time::Duration::from_millis(500);
            std::thread::scope(|s| {
                for _ in 0..nproc() {
                    s.spawn(|| {
                        let mut x = 0u64;
                        while Instant::now() < probe_end {
                            x = std::hint::black_box(
                                x.wrapping_mul(6364136223846793005).wrapping_add(1),
                            );
                        }
                    });
                }
            });
            let steal = steal_since(ticks);
            if steal <= CONTENDED || self.waited + started.elapsed() >= self.budget {
                break;
            }
            eprintln!(
                "host steal {:.0}% in a busy probe; waiting for a calmer host",
                steal * 100.0
            );
            std::thread::sleep(std::time::Duration::from_secs(2));
        }
        self.waited += started.elapsed();
    }
}

/// CPUs this process may use: the client-thread cap of the serve
/// workloads and part of every result's host record.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit the checkout was built from, when it is a git checkout
/// (read from `.git` directly; no subprocess).
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                // A packed ref: `<sha> <ref>` lines.
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            }),
        None => Some(head.to_string()),
    }
}

/// One JSON line naming the host a result was measured on, so results from
/// different host classes can be told apart.
pub fn host_line(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let commit = commit().map_or("null".to_string(), |c| json_str(&c));
    format!(
        "{{\"host\": {{\"nproc\": {}, \"profile\": \"{profile}\", \"commit\": {commit}, \"os\": \"{}\", \"arch\": \"{}\"}}, \"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}}}",
        nproc(),
        std::env::consts::OS,
        std::env::consts::ARCH,
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run of a workload hands back to `main`.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (SERP jobs for `study`, requests for serve).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The metrics of this mode (end-to-end untraced, per-layer traced).
    pub metrics: Vec<Metric>,
    /// Check failures, one line each (printed to stderr).
    pub problems: Vec<String>,
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_number(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// A finite number in JSON form with every digit Rust's shortest
/// round-trip formatting gives; non-finite values become `null`.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(&Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                value: 2.0,
                unit: "s",
            }],
            problems: vec![],
        });
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }
}

//! Metric names, the run's outcome, and the JSON result line.

use std::collections::BTreeMap;

use ntx_runtime::StatsSnapshot;

use crate::ledger::Checks;
use crate::trace::{Name, Tracer};
use crate::util::{Lat, Steal};

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("commit_tps", "1/s"),
    ("txn_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A metric
/// whose layer a workload does not reach reads 0 on that workload.
pub const LAYER: [(&str, &str); 43] = [
    ("client.send_us", "us"),
    ("client.wait_p50_us", "us"),
    ("wire.frames", "count"),
    ("gen.txn_p99_us", "us"),
    ("host.steal_pct", "%"),
    ("host.commit_tps_per_cpu_s", "1/s"),
    ("exec.peak_in_flight", "count"),
    ("lock.acquire_p50_us", "us"),
    ("lock.acquire_p99_us", "us"),
    ("lock.wait_per_1k", "count"),
    ("lock.wait_ms", "ms"),
    ("lock.handoffs", "count"),
    ("lock.wave_mean", "count"),
    ("lock.spin_grants", "count"),
    ("lock.cancelled", "count"),
    ("lock.deadlocks", "count"),
    ("lock.timeouts", "count"),
    ("lock.queue_depth_max", "count"),
    ("begin.p50_us", "us"),
    ("commit.child_p50_us", "us"),
    ("commit.top_p50_us", "us"),
    ("commit.top_p99_us", "us"),
    ("abort.child_p50_us", "us"),
    ("ro_p50_us", "us"),
    ("mvcc.snapshot_open_p50_us", "us"),
    ("mvcc.snapshot_read_p50_ns", "ns"),
    ("mvcc.versions_published", "count"),
    ("mvcc.versions_collected", "count"),
    ("mvcc.chain_len_max", "count"),
    ("wal.appends", "count"),
    ("wal.fsyncs", "count"),
    ("wal.commits_per_fsync", "count"),
    ("wal.batch_max", "count"),
    ("wal.bytes_per_commit", "B"),
    ("recovery.replay_s", "s"),
    ("recovery.commits_redone", "count"),
    ("recovery.torn_bytes", "B"),
    ("register.ns_per_object", "ns"),
    ("mem.setup_rss_mb", "MB"),
    ("trace.txn_p50_us", "us"),
    ("trace.unattributed_pct", "%"),
    ("trace.reconcile_failures", "count"),
    ("trace.spans", "count"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Top-level transactions attempted (read-only ones included).
    pub attempted: u64,
    /// Attempted transactions that ended in an error.
    pub failed: u64,
    /// Findings of the correctness checks.
    pub checks: Checks,
    /// End-to-end figures (meaningful from the untraced run only).
    pub e2e: Metrics,
    /// Per-layer figures (filled by the traced run).
    pub layer: Metrics,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed`, and the end-to-end
/// (untraced) or per-layer (traced) metrics. Errors if a workload left an
/// end-to-end metric unset.
pub fn json_line(out: &Outcome, traced: bool) -> Result<String, String> {
    let (names, values): (&[(&str, &str)], &Metrics) = if traced {
        (&LAYER, &out.layer)
    } else {
        (&E2E, &out.e2e)
    };
    let mut fields = Vec::new();
    for (name, unit) in names {
        let v = match values.get(name) {
            Some(v) => *v,
            None if traced => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(v)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.ok() && out.failed == 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    ))
}

/// Lock-layer counters diffed over the measured interval.
pub fn lock_metrics(before: &StatsSnapshot, after: &StatsSnapshot, m: &mut Metrics) {
    let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
    let grants = d(
        before.read_grants + before.write_grants,
        after.read_grants + after.write_grants,
    );
    let waits = d(before.waits, after.waits);
    m.insert(
        "lock.wait_per_1k",
        if grants > 0.0 {
            1e3 * waits / grants
        } else {
            0.0
        },
    );
    m.insert(
        "lock.wait_ms",
        after
            .total_wait
            .saturating_sub(before.total_wait)
            .as_secs_f64()
            * 1e3,
    );
    let handoffs = d(before.handoffs, after.handoffs);
    m.insert("lock.handoffs", handoffs);
    let wave = d(before.wave_grants, after.wave_grants);
    m.insert(
        "lock.wave_mean",
        if handoffs > 0.0 { wave / handoffs } else { 0.0 },
    );
    m.insert("lock.spin_grants", d(before.spin_grants, after.spin_grants));
    m.insert(
        "lock.cancelled",
        d(before.cancelled_waiters, after.cancelled_waiters),
    );
    m.insert("lock.deadlocks", d(before.deadlocks, after.deadlocks));
    m.insert("lock.timeouts", d(before.timeouts, after.timeouts));
    m.insert(
        "mvcc.versions_published",
        d(before.versions_published, after.versions_published),
    );
    m.insert(
        "mvcc.versions_collected",
        d(before.versions_collected, after.versions_collected),
    );
}

/// Layer-call timings taken from the traced run's spans.
pub fn span_metrics(t: &Tracer, m: &mut Metrics) {
    m.insert(
        "lock.acquire_p50_us",
        t.quantile_of_us(&[Name::Read, Name::Write], 0.5),
    );
    m.insert(
        "lock.acquire_p99_us",
        t.quantile_of_us(&[Name::Read, Name::Write], 0.99),
    );
    m.insert(
        "begin.p50_us",
        t.quantile_of_us(&[Name::Begin, Name::Child], 0.5),
    );
    m.insert(
        "commit.child_p50_us",
        t.quantile_of_us(&[Name::CommitChild], 0.5),
    );
    m.insert(
        "commit.top_p50_us",
        t.quantile_of_us(&[Name::CommitTop], 0.5),
    );
    m.insert(
        "commit.top_p99_us",
        t.quantile_of_us(&[Name::CommitTop], 0.99),
    );
    m.insert(
        "abort.child_p50_us",
        t.quantile_of_us(&[Name::AbortChild], 0.5),
    );
    m.insert(
        "mvcc.snapshot_open_p50_us",
        t.quantile_of_us(&[Name::SnapOpen], 0.5),
    );
    m.insert(
        "mvcc.snapshot_read_p50_ns",
        1e3 * t.quantile_of_us(&[Name::SnapRead], 0.5),
    );
    m.insert("client.send_us", t.quantile_of_us(&[Name::Send], 0.5));
    m.insert("client.wait_p50_us", t.quantile_of_us(&[Name::Wait], 0.5));
    m.insert("trace.unattributed_pct", t.unattributed_pct());
    m.insert("trace.reconcile_failures", t.failures as f64);
    m.insert("trace.spans", t.spans as f64);
}

/// The end-to-end figures of a run measured over `seconds` one-second
/// windows, each the median over the windows: committed read-write
/// transactions per second, the read-write latency median, plus the median
/// set-up time and the peak resident set. The read-only latency (`ro`, on
/// workloads that have read-only transactions), the tail and the host's
/// steal time go with the per-layer figures. Prints the per-second figures
/// to stderr so a reader can see whether a run moved within itself.
pub fn e2e_metrics(
    out: &mut Outcome,
    seconds: u64,
    setup_s: f64,
    (rw, ro): (&Lat, Option<&Lat>),
    peak_rss_mb: f64,
    steal: &Steal,
) {
    out.e2e.insert("setup_s", setup_s);
    out.e2e.insert("commit_tps", rw.rate(seconds));
    out.e2e.insert("txn_p50_us", rw.quantile_us(seconds, 0.5));
    out.e2e.insert("peak_rss_mb", peak_rss_mb);
    let m = &mut out.layer;
    m.insert("trace.txn_p50_us", rw.quantile_us(seconds, 0.5));
    m.insert("gen.txn_p99_us", rw.quantile_us(seconds, 0.99));
    m.insert("host.steal_pct", steal.mean_pct());
    m.insert(
        "host.commit_tps_per_cpu_s",
        rw.rate_per_cpu_second(seconds, steal),
    );
    eprintln!(
        "per second: read-write commits@p50_us {}",
        rw.windows_summary(seconds, 0.5)
    );
    eprintln!(
        "per second: read-write commits@p99_us {}",
        rw.windows_summary(seconds, 0.99)
    );
    if let Some(ro) = ro {
        m.insert("ro_p50_us", ro.quantile_us(seconds, 0.5));
        eprintln!(
            "per second: read-only commits@p50_us {}",
            ro.windows_summary(seconds, 0.5)
        );
    }
    eprintln!(
        "per second: host steal ticks over {} CPUs {:?}",
        steal.cpus, steal.ticks
    );
}

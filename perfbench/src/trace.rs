//! The traced run's span recorder.
//!
//! A span is a name, a start, an end and a parent; the spans of one
//! transaction share its id. The benchmark opens a span around each call
//! it makes into a layer's public functions (spans inside the program are
//! not recorded). Spans stay in memory: every span's duration feeds the
//! per-layer figures, the spans of the first [`KEEP_TXNS`] transactions of
//! each recorder are kept whole and written out when the run ends, and
//! every transaction is reconciled as it finishes.
//!
//! Reconciliation: the root span of a transaction is its measured latency,
//! and the layer calls under it must explain that latency. The root's self
//! time (its duration minus the spans directly under it) is time spent
//! outside every layer call: the recorder's own clock reads and whatever
//! the generator did between calls. It must stay within [`TOLERANCE_NS`]
//! plus [`TOLERANCE_PER_SPAN_NS`] per span plus [`TOLERANCE_FRAC`] of the
//! latency. A call left untraced inside a transaction, or a latency timed
//! over another interval than its calls, fails it. A thread preempted
//! between two spans fails it too, so a run may lose up to
//! [`MAX_FAILED_SHARE`] of its transactions that way before it counts as
//! incorrect. Recorders made with [`Tracer::unreconciled`] skip the check:
//! a pipelined wire transaction mostly waits behind the other transactions
//! on its connection, and those waits are no call of its own.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::util::{quantile, Rng};

/// Span names: the root of each transaction plus one per public call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// A whole transaction (the root span).
    Txn,
    /// A subtransaction's lifetime, from `Tx::child` to its commit/abort.
    Sub,
    /// `TxManager::begin`.
    Begin,
    /// `Tx::child`.
    Child,
    /// `Tx::read` / awaited `Tx::read_async`.
    Read,
    /// `Tx::write` / awaited `Tx::write_async`.
    Write,
    /// `Tx::commit` of a subtransaction.
    CommitChild,
    /// `Tx::commit` of a top-level transaction.
    CommitTop,
    /// `Tx::abort` of a subtransaction.
    AbortChild,
    /// A snapshot's lifetime, from `TxManager::snapshot` to its drop.
    Snap,
    /// `TxManager::snapshot`.
    SnapOpen,
    /// `Snapshot::read`.
    SnapRead,
    /// `Client::send` of every frame of one transaction.
    Send,
    /// `Client::read_response` of every response of one transaction.
    Wait,
}

const NAMES: [Name; 14] = [
    Name::Txn,
    Name::Sub,
    Name::Begin,
    Name::Child,
    Name::Read,
    Name::Write,
    Name::CommitChild,
    Name::CommitTop,
    Name::AbortChild,
    Name::Snap,
    Name::SnapOpen,
    Name::SnapRead,
    Name::Send,
    Name::Wait,
];

impl Name {
    fn label(self) -> &'static str {
        match self {
            Name::Txn => "txn",
            Name::Sub => "sub",
            Name::Begin => "begin",
            Name::Child => "child",
            Name::Read => "read",
            Name::Write => "write",
            Name::CommitChild => "commit.child",
            Name::CommitTop => "commit.top",
            Name::AbortChild => "abort.child",
            Name::Snap => "snapshot",
            Name::SnapOpen => "snapshot.open",
            Name::SnapRead => "snapshot.read",
            Name::Send => "client.send",
            Name::Wait => "client.wait",
        }
    }
}

/// Transactions per recorder whose spans are kept whole and written out.
pub const KEEP_TXNS: usize = 2_000;
/// Durations kept per span name per recorder (a uniform reservoir beyond).
const DUR_CAP: usize = 1 << 20;
/// Absolute part of the reconciliation tolerance.
pub const TOLERANCE_NS: u64 = 1_000;
/// Part of the tolerance per span: the recorder's two clock reads and its
/// bookkeeping between one call and the next.
pub const TOLERANCE_PER_SPAN_NS: u64 = 200;
/// Relative part of the reconciliation tolerance.
pub const TOLERANCE_FRAC: f64 = 0.01;
/// Share of a run's transactions that may fail reconciliation (threads
/// preempted between two spans) before the traced run is incorrect.
pub const MAX_FAILED_SHARE: f64 = 0.01;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the run's origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    name: Name,
    start: u64,
    end: u64,
    parent: u32,
}

/// Per-name durations with a fixed memory bound.
#[derive(Clone, Debug, Default)]
struct Durations {
    v: Vec<u64>,
    seen: u64,
}

impl Durations {
    fn push(&mut self, ns: u64, rng: &mut Rng) {
        self.seen += 1;
        if self.v.len() < DUR_CAP {
            self.v.push(ns);
        } else {
            let j = rng.below(self.seen) as usize;
            if j < DUR_CAP {
                self.v[j] = ns;
            }
        }
    }
}

/// A span recorder owned by one generator thread or session.
pub struct Tracer {
    origin: Instant,
    tag: u64,
    reconcile: bool,
    cur: Vec<Span>,
    stack: Vec<u32>,
    kept: Vec<(u64, Vec<Span>)>,
    durs: Vec<Durations>,
    rng: Rng,
    /// Transactions reconciled.
    pub txns: u64,
    /// Transactions whose spans failed to reconcile.
    pub failures: u64,
    /// Spans recorded.
    pub spans: u64,
    unattributed_ns: u128,
    measured_ns: u128,
}

impl Tracer {
    /// A recorder for generator `tag`, timing from the shared `origin`.
    pub fn new(origin: Instant, tag: u64) -> Tracer {
        Tracer {
            origin,
            tag,
            reconcile: true,
            cur: Vec::new(),
            stack: Vec::new(),
            kept: Vec::new(),
            durs: vec![Durations::default(); NAMES.len()],
            rng: Rng::new(tag, 0x7472_6163),
            txns: 0,
            failures: 0,
            spans: 0,
            unattributed_ns: 0,
            measured_ns: 0,
        }
    }

    /// A recorder that keeps spans and figures but does not reconcile.
    pub fn unreconciled(origin: Instant, tag: u64) -> Tracer {
        Tracer {
            reconcile: false,
            ..Tracer::new(origin, tag)
        }
    }

    /// Nanoseconds from the origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.ns(Instant::now())
    }

    /// Start a transaction's root span at `t0`, the instant the workload
    /// starts timing it.
    pub fn begin_txn(&mut self, t0: Instant) {
        let start = self.ns(t0);
        self.cur.clear();
        self.stack.clear();
        self.cur.push(Span {
            name: Name::Txn,
            start,
            end: 0,
            parent: NO_PARENT,
        });
        self.stack.push(0);
    }

    /// Open a span under the innermost open span.
    pub fn open(&mut self, name: Name) {
        let parent = *self.stack.last().expect("open() outside a transaction");
        let idx = self.cur.len() as u32;
        let start = self.now();
        self.cur.push(Span {
            name,
            start,
            end: 0,
            parent,
        });
        self.stack.push(idx);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let idx = self.stack.pop().expect("close() without open()") as usize;
        self.cur[idx].end = self.now();
    }

    /// Record a finished span under the root with explicit times (for
    /// pipelined wire transactions, whose calls interleave with those of
    /// other transactions on the same connection).
    pub fn leaf(&mut self, name: Name, start: Instant, end: Instant) {
        let (start, end) = (self.ns(start), self.ns(end));
        self.cur.push(Span {
            name,
            start,
            end,
            parent: 0,
        });
    }

    /// Close the root span at `t1`, reconcile the layer calls of the
    /// transaction against `measured`, the latency the workload took with
    /// its own clock, and keep its figures.
    pub fn end_txn(&mut self, t1: Instant, measured: Duration) {
        self.cur[0].end = self.ns(t1);
        self.stack.clear();
        let measured = measured.as_nanos() as u64;
        let outside = outside_calls(&self.cur, measured);
        if self.reconcile {
            let tol = TOLERANCE_NS
                + TOLERANCE_PER_SPAN_NS * self.cur.len() as u64
                + (TOLERANCE_FRAC * measured as f64) as u64;
            if outside > tol {
                self.failures += 1;
            }
        }
        self.unattributed_ns += u128::from(outside);
        self.measured_ns += u128::from(measured);
        self.txns += 1;
        self.spans += self.cur.len() as u64;
        for s in &self.cur {
            let i = NAMES.iter().position(|&n| n == s.name).unwrap_or(0);
            self.durs[i].push(s.end.saturating_sub(s.start), &mut self.rng);
        }
        if self.kept.len() < KEEP_TXNS {
            let id = (self.tag << 40) | self.txns;
            self.kept.push((id, self.cur.clone()));
        }
    }

    /// Drop the transaction being built (it failed; its spans are not
    /// figures of completed work).
    pub fn abandon_txn(&mut self) {
        self.cur.clear();
        self.stack.clear();
    }

    /// Fold `other` into `acc`, which may not hold a recorder yet.
    pub fn fold(acc: &mut Option<Tracer>, other: Option<Tracer>) {
        match (acc.as_mut(), other) {
            (Some(t), Some(o)) => t.merge(o),
            (None, o) => *acc = o,
            (Some(_), None) => {}
        }
    }

    /// Fold another recorder into this one.
    pub fn merge(&mut self, other: Tracer) {
        self.txns += other.txns;
        self.failures += other.failures;
        self.spans += other.spans;
        self.unattributed_ns += other.unattributed_ns;
        self.measured_ns += other.measured_ns;
        for (mine, theirs) in self.durs.iter_mut().zip(other.durs) {
            mine.seen += theirs.seen;
            let room = DUR_CAP.saturating_sub(mine.v.len());
            mine.v.extend(theirs.v.into_iter().take(room));
        }
        let room = KEEP_TXNS.saturating_sub(self.kept.len());
        self.kept.extend(other.kept.into_iter().take(room));
    }

    /// `q`-quantile of the durations of spans with any of `names`,
    /// microseconds (0 when none was recorded).
    pub fn quantile_of_us(&self, names: &[Name], q: f64) -> f64 {
        let mut all: Vec<u64> = NAMES
            .iter()
            .zip(&self.durs)
            .filter(|(n, _)| names.contains(n))
            .flat_map(|(_, d)| d.v.iter().copied())
            .collect();
        quantile(&mut all, q) / 1e3
    }

    /// Whether more than [`MAX_FAILED_SHARE`] of the transactions failed
    /// reconciliation.
    pub fn too_many_failures(&self) -> bool {
        self.failures as f64 > MAX_FAILED_SHARE * self.txns as f64
    }

    /// Share of measured latency spent outside every layer call, percent.
    pub fn unattributed_pct(&self) -> f64 {
        if self.measured_ns == 0 {
            0.0
        } else {
            100.0 * self.unattributed_ns as f64 / self.measured_ns as f64
        }
    }

    /// Write the kept spans as tab-separated rows
    /// `txn  span  name  start_ns  end_ns  parent` (parent `-` for roots).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "txn\tspan\tname\tstart_ns\tend_ns\tparent")?;
        for (txn, spans) in &self.kept {
            for (i, s) in spans.iter().enumerate() {
                let parent = if s.parent == NO_PARENT {
                    "-".to_string()
                } else {
                    s.parent.to_string()
                };
                writeln!(
                    out,
                    "{txn}\t{i}\t{}\t{}\t{}\t{parent}",
                    s.name.label(),
                    s.start,
                    s.end
                )?;
            }
        }
        out.flush()
    }
}

/// An optional recorder: every method is a no-op in the untraced run, so
/// one generator body serves both runs.
pub struct Tr(pub Option<Tracer>);

impl Tr {
    /// See [`Tracer::begin_txn`].
    pub fn begin_txn(&mut self, t0: Instant) {
        if let Some(t) = &mut self.0 {
            t.begin_txn(t0);
        }
    }

    /// See [`Tracer::open`].
    pub fn open(&mut self, name: Name) {
        if let Some(t) = &mut self.0 {
            t.open(name);
        }
    }

    /// See [`Tracer::close`].
    pub fn close(&mut self) {
        if let Some(t) = &mut self.0 {
            t.close();
        }
    }

    /// See [`Tracer::end_txn`].
    pub fn end_txn(&mut self, t1: Instant, measured: Duration) {
        if let Some(t) = &mut self.0 {
            t.end_txn(t1, measured);
        }
    }

    /// See [`Tracer::abandon_txn`].
    pub fn abandon_txn(&mut self) {
        if let Some(t) = &mut self.0 {
            t.abandon_txn();
        }
    }
}

/// Time of a transaction's `measured` latency that no span directly under
/// its root (`spans[0]`) covers. Spans are opened and closed as a stack, or
/// recorded whole under the root, so spans under the root never overlap.
fn outside_calls(spans: &[Span], measured: u64) -> u64 {
    let calls: u64 = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.end.saturating_sub(s.start))
        .sum();
    measured.saturating_sub(calls)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(origin: Instant, ns: u64) -> Instant {
        origin + Duration::from_nanos(ns)
    }

    #[test]
    fn time_outside_the_calls_under_the_root() {
        let span = |start, end, parent| Span {
            name: Name::Read,
            start,
            end,
            parent,
        };
        // The nested span is inside its parent and is not counted twice.
        let spans = [
            span(0, 100, NO_PARENT),
            span(10, 60, 0),
            span(20, 40, 1),
            span(70, 95, 0),
        ];
        assert_eq!(outside_calls(&spans, 100), 25);
        assert_eq!(outside_calls(&spans[..1], 100), 100);
    }

    #[test]
    fn reconciliation_counts_a_latency_the_calls_do_not_explain() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 1);
        // 10 µs of calls and 1.5 µs outside them: within 1 µs + 2 × 200 ns
        // + 1 % of 11.5 µs = 1.515 µs.
        t.begin_txn(at(origin, 0));
        t.leaf(Name::Send, at(origin, 500), at(origin, 10_500));
        t.end_txn(at(origin, 11_500), Duration::from_nanos(11_500));
        assert_eq!((t.txns, t.failures), (1, 0));
        // 1.6 µs outside: over the tolerance.
        t.begin_txn(at(origin, 0));
        t.leaf(Name::Send, at(origin, 500), at(origin, 10_500));
        t.end_txn(at(origin, 11_600), Duration::from_nanos(11_600));
        assert_eq!((t.txns, t.failures), (2, 1));
        assert!(t.too_many_failures());
        // An unreconciled recorder keeps the figure but does not judge it.
        let mut u = Tracer::unreconciled(origin, 2);
        u.begin_txn(at(origin, 0));
        u.leaf(Name::Send, at(origin, 0), at(origin, 100));
        u.end_txn(at(origin, 1_000_000), Duration::from_nanos(1_000_000));
        assert_eq!((u.txns, u.failures), (1, 0));
        assert!((u.unattributed_pct() - 99.99).abs() < 1e-9);
    }

    #[test]
    fn a_few_failures_are_tolerated() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 1);
        for i in 0..200 {
            let outside = if i == 0 { 50_000 } else { 0 };
            t.begin_txn(at(origin, 0));
            t.leaf(Name::Read, at(origin, 0), at(origin, 1_000));
            t.end_txn(
                at(origin, 1_000 + outside),
                Duration::from_nanos(1_000 + outside),
            );
        }
        assert_eq!((t.txns, t.failures), (200, 1));
        assert!(!t.too_many_failures());
    }
}

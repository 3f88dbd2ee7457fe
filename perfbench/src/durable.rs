//! `durable_mixed`: two OS threads on the sync API over durable objects,
//! with a group-commit WAL.
//!
//! The keyspace is [`GROUPS`] groups of [`GROUP_KEYS`] durable `i64` keys,
//! each starting at [`INITIAL`], so every group has a fixed total. A
//! read-write transaction is a transfer inside one group: two children,
//! the first debiting the lower key and the second crediting the higher
//! one (ascending order, so no deadlock can form). Before either child,
//! with probability one in [`ABORT_ONE_IN`], a child writes a bogus amount
//! to the same key and is aborted on purpose; it must leave no trace. One
//! operation in [`RO_ONE_IN`] is a read-only `Snapshot` of one whole group,
//! whose sum must equal the group total (a consistent cut has to).
//!
//! Set-up reopens and recovers a log of [`PREP_TXNS`] transfers written
//! before timing started, so `setup_s` is the restart time. After the run
//! the manager is closed cleanly, reopened and recovered once more, and
//! the recovered state must equal the ledgers.

use std::path::Path;
use std::time::{Duration, Instant};

use ntx_runtime::{FsyncPolicy, ObjRef, RecoveryReport, RtConfig, Snapshot, TxError, TxManager};

use crate::ledger::{check_eq, check_group_sum, check_state, Checks, Ledger};
use crate::report::{e2e_metrics, lock_metrics, span_metrics, Outcome};
use crate::sync::atomic::{AtomicU8, Ordering};
use crate::trace::{Name, Tr, Tracer};
use crate::util::{
    dir_bytes, median_f64, peak_rss_mb, phase, rss_mb, run_window, Lat, Rng, ScratchDir, WARMUP,
};

/// Groups of keys.
const GROUPS: usize = 4096;
/// Keys per group.
const GROUP_KEYS: usize = 16;
/// Every key's initial balance.
const INITIAL: i64 = 1_000;
/// Generator threads.
const THREADS: u64 = 2;
/// One operation in this many is a read-only group snapshot.
const RO_ONE_IN: u64 = 5;
/// One child in this many is preceded by a child aborted on purpose.
const ABORT_ONE_IN: u64 = 10;
/// Amount the aborted children add; never visible if aborts are clean.
const BOGUS: i64 = 1_000_000_007;
/// Transfers in the log that set-up recovers.
const PREP_TXNS: u64 = 50_000;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 7;
/// Group commit: fsync once this many commits are pending ...
const GROUP_COMMITS: usize = 8192;
/// ... or the oldest pending commit has waited this long.
const GROUP_WAIT: Duration = Duration::from_millis(100);

const KEYS: usize = GROUPS * GROUP_KEYS;

fn config(dir: &Path) -> RtConfig {
    RtConfig {
        wal_dir: Some(dir.to_path_buf()),
        fsync_policy: FsyncPolicy::Group(GROUP_COMMITS, GROUP_WAIT),
        ..RtConfig::default()
    }
}

fn register(mgr: &TxManager) -> Vec<ObjRef<i64>> {
    (0..KEYS)
        .map(|k| mgr.register_durable(format!("g{}k{}", k / GROUP_KEYS, k % GROUP_KEYS), INITIAL))
        .collect()
}

fn state(mgr: &TxManager, keys: &[ObjRef<i64>]) -> Vec<i64> {
    keys.iter().map(|o| mgr.read_committed(o, |v| *v)).collect()
}

/// One planned transfer.
struct Transfer {
    lo: usize,
    hi: usize,
    amount: i64,
    abort_lo: bool,
    abort_hi: bool,
}

impl Transfer {
    fn draw(rng: &mut Rng) -> Transfer {
        let g = rng.below(GROUPS as u64) as usize;
        let (i, j) = rng.two_ascending(GROUP_KEYS as u64);
        Transfer {
            lo: g * GROUP_KEYS + i as usize,
            hi: g * GROUP_KEYS + j as usize,
            amount: 1 + rng.below(100) as i64,
            abort_lo: rng.below(ABORT_ONE_IN) == 0,
            abort_hi: rng.below(ABORT_ONE_IN) == 0,
        }
    }
}

/// Add `d` to `key` in a child of `tx`, after a child aborted on purpose
/// when `abort_first`.
fn child_write(
    tx: &ntx_runtime::Tx,
    key: &ObjRef<i64>,
    d: i64,
    abort_first: bool,
    tr: &mut Tr,
) -> Result<(), TxError> {
    if abort_first {
        tr.open(Name::Sub);
        tr.open(Name::Child);
        let doomed = tx.child()?;
        tr.close();
        tr.open(Name::Write);
        doomed.write(key, |v| *v += BOGUS)?;
        tr.close();
        tr.open(Name::AbortChild);
        doomed.abort();
        tr.close();
        drop(doomed);
        tr.close();
    }
    tr.open(Name::Sub);
    tr.open(Name::Child);
    let child = tx.child()?;
    tr.close();
    tr.open(Name::Write);
    child.write(key, |v| *v += d)?;
    tr.close();
    tr.open(Name::CommitChild);
    child.commit()?;
    tr.close();
    drop(child);
    tr.close();
    Ok(())
}

fn transfer(
    mgr: &TxManager,
    keys: &[ObjRef<i64>],
    t: &Transfer,
    tr: &mut Tr,
) -> Result<(), TxError> {
    tr.open(Name::Begin);
    let tx = mgr.begin();
    tr.close();
    child_write(&tx, &keys[t.lo], -t.amount, t.abort_lo, tr)?;
    child_write(&tx, &keys[t.hi], t.amount, t.abort_hi, tr)?;
    tr.open(Name::CommitTop);
    let committed = tx.commit();
    drop(tx);
    tr.close();
    committed
}

/// Read one group through a fresh snapshot.
fn group_snapshot(mgr: &TxManager, keys: &[ObjRef<i64>], g: usize, tr: &mut Tr) -> Vec<i64> {
    tr.open(Name::Snap);
    tr.open(Name::SnapOpen);
    let snap: Snapshot = mgr.snapshot();
    tr.close();
    let vals = keys[g * GROUP_KEYS..(g + 1) * GROUP_KEYS]
        .iter()
        .map(|k| {
            tr.open(Name::SnapRead);
            let v = snap.read(k, |v| *v);
            tr.close();
            v
        })
        .collect();
    drop(snap);
    tr.close();
    vals
}

/// Write the log that set-up recovers; returns its ledger.
fn prepare_log(dir: &Path, seed: u64) -> Result<Ledger, String> {
    let mgr = TxManager::new(config(dir));
    let keys = register(&mgr);
    let mut rng = Rng::new(seed, 0x500);
    let mut ledger = Ledger::new(KEYS);
    let mut tr = Tr(None);
    for _ in 0..PREP_TXNS {
        let mut t = Transfer::draw(&mut rng);
        t.abort_lo = false;
        t.abort_hi = false;
        transfer(&mgr, &keys, &t, &mut tr).map_err(|e| format!("writing the log: {e}"))?;
        ledger.add(t.lo, -t.amount);
        ledger.add(t.hi, t.amount);
        ledger.commits += 1;
    }
    Ok(ledger)
}

/// Reopen the log and recover it: the restart that `setup_s` times.
struct Reopened {
    mgr: TxManager,
    keys: Vec<ObjRef<i64>>,
    report: RecoveryReport,
    total: Duration,
    registered: Duration,
    replay: Duration,
}

fn reopen(dir: &Path) -> Result<Reopened, String> {
    let t0 = Instant::now();
    let mgr = TxManager::new(config(dir));
    let keys = register(&mgr);
    let registered = t0.elapsed();
    let report = mgr.recover().map_err(|e| format!("recover: {e}"))?;
    let total = t0.elapsed();
    Ok(Reopened {
        mgr,
        keys,
        report,
        total,
        registered,
        replay: total - registered,
    })
}

/// What one generator thread hands back.
struct ThreadOut {
    ledger: Ledger,
    rw: Lat,
    ro: Lat,
    attempted: u64,
    failed: u64,
    torn_snapshots: Vec<String>,
    tracer: Option<Tracer>,
}

fn generator(
    mgr: &TxManager,
    keys: &[ObjRef<i64>],
    ph: &AtomicU8,
    start: Instant,
    seed: u64,
    idx: u64,
    tracer: Option<Tracer>,
) -> ThreadOut {
    let mut rng = Rng::new(seed, 0x600 + idx);
    let mut tr = Tr(tracer);
    let mut out = ThreadOut {
        ledger: Ledger::new(KEYS),
        rw: Lat::default(),
        ro: Lat::default(),
        attempted: 0,
        failed: 0,
        torn_snapshots: Vec::new(),
        tracer: None,
    };
    let total = INITIAL * GROUP_KEYS as i64;
    loop {
        let p = ph.load(Ordering::SeqCst);
        if p == phase::STOP {
            break;
        }
        out.attempted += 1;
        if rng.below(RO_ONE_IN) == 0 {
            let g = rng.below(GROUPS as u64) as usize;
            let t0 = Instant::now();
            tr.begin_txn(t0);
            let vals = group_snapshot(mgr, keys, g, &mut tr);
            let t1 = Instant::now();
            let lat = t1 - t0;
            tr.end_txn(t1, lat);
            if let Err(e) = check_group_sum(g, &vals, total) {
                out.torn_snapshots.push(e);
            }
            if p == phase::MEASURE {
                out.ro.record(t1.saturating_duration_since(start), lat);
            }
            continue;
        }
        let t = Transfer::draw(&mut rng);
        let t0 = Instant::now();
        tr.begin_txn(t0);
        match transfer(mgr, keys, &t, &mut tr) {
            Ok(()) => {
                let t1 = Instant::now();
                let lat = t1 - t0;
                tr.end_txn(t1, lat);
                out.ledger.add(t.lo, -t.amount);
                out.ledger.add(t.hi, t.amount);
                out.ledger.commits += 1;
                if p == phase::MEASURE {
                    out.rw.record(t1.saturating_duration_since(start), lat);
                }
            }
            Err(_) => {
                tr.abandon_txn();
                out.failed += 1;
            }
        }
    }
    out.tracer = tr.0;
    out
}

/// Run the workload for `seconds` measured seconds.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let dir = ScratchDir::new("wal").map_err(|e| format!("create WAL directory: {e}"))?;
    let mut checks = Checks::default();
    let prep = prepare_log(dir.path(), seed)?;

    let (mut setups, mut regs, mut replays) = (Vec::new(), Vec::new(), Vec::new());
    let mut world = None;
    for _ in 0..SETUPS {
        drop(world.take());
        let r = reopen(dir.path())?;
        setups.push(r.total.as_secs_f64());
        regs.push(r.registered.as_secs_f64());
        replays.push(r.replay.as_secs_f64());
        checks.add(check_state(
            "state recovered in set-up",
            &prep,
            |_| INITIAL,
            &state(&r.mgr, &r.keys),
        ));
        checks.add(check_eq(
            "commits replayed in set-up",
            r.report.commits_redone,
            prep.commits,
        ));
        world = Some(r);
    }
    let Reopened {
        mgr, keys, report, ..
    } = world.ok_or("no set-up ran")?;
    let setup_rss = rss_mb();
    let wal_before = dir_bytes(dir.path());

    let ph = AtomicU8::new(phase::WARMUP);
    let origin = Instant::now();
    let start = origin + WARMUP;
    let (outs, win) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let (mgr, keys, ph) = (&mgr, &keys, &ph);
                let tracer = traced.then(|| Tracer::new(origin, i));
                s.spawn(move || generator(mgr, keys, ph, start, seed, i, tracer))
            })
            .collect();
        let window = run_window(&ph, start, seconds, || mgr.stats(), || {});
        let outs: Vec<Option<ThreadOut>> = handles.into_iter().map(|h| h.join().ok()).collect();
        (outs, window)
    });
    // Before the checks: the final recovery reads the whole log into memory.
    let peak_rss = peak_rss_mb();

    let mut ledger = prep.clone();
    let mut run_ledger = Ledger::new(KEYS);
    let (mut rw, mut ro) = (Lat::default(), Lat::default());
    let mut out = Outcome::default();
    let mut tracer: Option<Tracer> = None;
    for o in outs {
        let o = o.ok_or("generator thread panicked")?;
        run_ledger.merge(&o.ledger);
        rw.merge(o.rw);
        ro.merge(o.ro);
        out.attempted += o.attempted;
        out.failed += o.failed;
        for e in o.torn_snapshots.into_iter().take(3) {
            checks.fail(e);
        }
        Tracer::fold(&mut tracer, o.tracer);
    }
    ledger.merge(&run_ledger);
    checks.add(check_eq(
        "top-level commits, program vs generator",
        mgr.stats().top_level_commits,
        run_ledger.commits,
    ));
    checks.add(check_state(
        "state after the run",
        &ledger,
        |_| INITIAL,
        &state(&mgr, &keys),
    ));
    let chain_max = keys
        .iter()
        .map(|o| mgr.version_chain_len(o))
        .max()
        .unwrap_or(0);
    let batch_max = mgr.stats().group_commit_batch_max;
    drop(mgr);
    let wal_after = dir_bytes(dir.path());

    let again = reopen(dir.path())?;
    checks.add(check_state(
        "state recovered after a clean close",
        &ledger,
        |_| INITIAL,
        &state(&again.mgr, &again.keys),
    ));
    checks.add(check_eq(
        "commits replayed after a clean close",
        again.report.commits_redone,
        ledger.commits,
    ));
    drop(again);
    out.checks = checks;

    e2e_metrics(
        &mut out,
        seconds,
        median_f64(&mut setups),
        (&rw, Some(&ro)),
        peak_rss,
        &win.steal,
    );

    let m = &mut out.layer;
    lock_metrics(&win.before, &win.after, m);
    m.insert("mvcc.chain_len_max", chain_max as f64);
    let appends = win.after.wal_appends.saturating_sub(win.before.wal_appends);
    let fsyncs = win.after.wal_fsyncs.saturating_sub(win.before.wal_fsyncs);
    let commits = win
        .after
        .top_level_commits
        .saturating_sub(win.before.top_level_commits);
    m.insert("wal.appends", appends as f64);
    m.insert("wal.fsyncs", fsyncs as f64);
    m.insert(
        "wal.commits_per_fsync",
        if fsyncs > 0 {
            commits as f64 / fsyncs as f64
        } else {
            0.0
        },
    );
    m.insert("wal.batch_max", batch_max as f64);
    m.insert(
        "wal.bytes_per_commit",
        wal_after.saturating_sub(wal_before) as f64 / run_ledger.commits.max(1) as f64,
    );
    m.insert("recovery.replay_s", median_f64(&mut replays));
    m.insert("recovery.commits_redone", report.commits_redone as f64);
    m.insert("recovery.torn_bytes", report.torn_bytes as f64);
    m.insert(
        "register.ns_per_object",
        1e9 * median_f64(&mut regs) / KEYS as f64,
    );
    m.insert("mem.setup_rss_mb", setup_rss);
    if let Some(t) = &tracer {
        span_metrics(t, m);
    }
    out.tracer = tracer;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Traced transfers through the workload's own code, with or without
    /// an untraced call inside the measured latency.
    fn reconcile(mgr: &TxManager, keys: &[ObjRef<i64>], hidden: bool) -> (u64, u64) {
        let mut rng = Rng::new(1, 0x600);
        let mut tr = Tr(Some(Tracer::new(Instant::now(), 0)));
        for _ in 0..200 {
            let mut t = Transfer::draw(&mut rng);
            t.abort_lo = true;
            let t0 = Instant::now();
            tr.begin_txn(t0);
            transfer(mgr, keys, &t, &mut tr).expect("transfer commits");
            if hidden {
                let seen: i64 = keys[..256]
                    .iter()
                    .map(|k| mgr.read_committed(k, |v| *v))
                    .sum();
                assert!(seen > 0);
            }
            let t1 = Instant::now();
            tr.end_txn(t1, t1 - t0);
        }
        let t = tr.0.expect("traced");
        (t.txns, t.failures)
    }

    #[test]
    fn reconciliation_rejects_a_call_left_untraced() {
        let mgr = TxManager::new(RtConfig::default());
        let keys = register(&mgr);
        let (txns, clean_failures) = reconcile(&mgr, &keys, false);
        assert_eq!(txns, 200);
        // A thread preempted between two spans may fail a few.
        assert!(clean_failures <= 10, "{clean_failures} of 200 failed");
        assert_eq!(reconcile(&mgr, &keys, true), (200, 200));
    }
}

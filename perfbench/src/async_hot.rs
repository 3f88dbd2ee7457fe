//! `async_hot`: closed-loop sessions as futures on an in-process
//! `ntx_serve::Executor`, queueing on a few hot keys.
//!
//! 64 sessions share 8 hot keys, so each hot key's lock queue is about 8
//! deep. A transaction writes a hot key in a child, commits the child (its
//! lock is inherited by the parent), reads a key of a read-only cold
//! keyspace and commits at top level. Hot keys are registered before cold
//! ones and every transaction takes its hot key first, so keys are always
//! taken in ascending order and no cycle can form. Sessions yield to the executor between transactions. No wire and
//! no WAL: the async waiter queues, grant waves, wait-for edge upkeep and
//! the commit-time release scan do most of the work.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use ntx_runtime::{ObjRef, RtConfig, TxError, TxManager};
use ntx_serve::Executor;

use crate::ledger::{check_eq, check_state, Checks, Ledger};
use crate::report::{e2e_metrics, lock_metrics, span_metrics, Outcome};
use crate::sync::atomic::{AtomicU8, Ordering};
use crate::sync::{Arc, Mutex};
use crate::trace::{Name, Tr, Tracer};
use crate::util::{median_f64, peak_rss_mb, phase, rss_mb, run_window, Lat, Rng, WARMUP};

/// Executor worker threads.
const WORKERS: usize = 2;
/// Concurrent sessions (futures).
const SESSIONS: u64 = 64;
/// Hot keys, written by every read-write transaction.
const HOT: usize = 8;
/// Read-only cold keys (initial value = index).
const COLD: usize = 131_072;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 7;

struct World {
    mgr: TxManager,
    hot: Vec<ObjRef<i64>>,
    cold: Vec<ObjRef<i64>>,
    exec: Executor,
}

/// Build the manager, the keyspace and the executor; returns the world,
/// the whole set-up time and the registration time.
fn setup() -> (World, Duration, Duration) {
    let t0 = Instant::now();
    let mgr = TxManager::new(RtConfig::default());
    let hot = (0..HOT)
        .map(|i| mgr.register(format!("hot{i}"), 0i64))
        .collect();
    let cold = (0..COLD)
        .map(|i| mgr.register(format!("cold{i}"), i as i64))
        .collect();
    let registered = t0.elapsed();
    let exec = Executor::new(WORKERS);
    let world = World {
        mgr,
        hot,
        cold,
        exec,
    };
    (world, t0.elapsed(), registered)
}

/// What one session hands back when it stops.
struct SessionOut {
    ledger: Ledger,
    lat: Lat,
    attempted: u64,
    failed: u64,
    bad_cold_reads: u64,
    tracer: Option<Tracer>,
}

struct Shared {
    mgr: TxManager,
    hot: Vec<ObjRef<i64>>,
    cold: Vec<ObjRef<i64>>,
    phase: AtomicU8,
    origin: Instant,
    start: Instant,
    outs: Mutex<Vec<SessionOut>>,
}

/// Resolves after one trip through the executor's run queue.
struct YieldNow(bool);

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            return Poll::Ready(());
        }
        self.0 = true;
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

/// Run one transaction; on commit returns the cold value read.
async fn one_txn(
    sh: &Shared,
    tr: &mut Tr,
    h: usize,
    c: usize,
    delta: i64,
) -> Result<i64, TxError> {
    tr.open(Name::Begin);
    let tx = sh.mgr.begin();
    tr.close();
    tr.open(Name::Sub);
    tr.open(Name::Child);
    let child = tx.child()?;
    tr.close();
    tr.open(Name::Write);
    child.write_async(&sh.hot[h], move |v| *v += delta).await?;
    tr.close();
    tr.open(Name::CommitChild);
    child.commit()?;
    tr.close();
    drop(child);
    tr.close();
    tr.open(Name::Read);
    let cold = tx.read_async(&sh.cold[c], |v| *v).await?;
    tr.close();
    tr.open(Name::CommitTop);
    let committed = tx.commit();
    drop(tx);
    tr.close();
    committed.map(|()| cold)
}

async fn session(sh: Arc<Shared>, seed: u64, idx: u64, traced: bool) {
    let mut rng = Rng::new(seed, 0x100 + idx);
    let mut tr = Tr(traced.then(|| Tracer::new(sh.origin, idx)));
    let mut out = SessionOut {
        ledger: Ledger::new(HOT),
        lat: Lat::default(),
        attempted: 0,
        failed: 0,
        bad_cold_reads: 0,
        tracer: None,
    };
    loop {
        let ph = sh.phase.load(Ordering::SeqCst);
        if ph == phase::STOP {
            break;
        }
        let h = rng.below(HOT as u64) as usize;
        let c = rng.below(COLD as u64) as usize;
        let delta = 1 + rng.below(100) as i64;
        out.attempted += 1;
        let t0 = Instant::now();
        tr.begin_txn(t0);
        match one_txn(&sh, &mut tr, h, c, delta).await {
            Ok(cold) => {
                let t1 = Instant::now();
                let lat = t1 - t0;
                tr.end_txn(t1, lat);
                out.ledger.commits += 1;
                out.ledger.add(h, delta);
                if cold != c as i64 {
                    out.bad_cold_reads += 1;
                }
                if ph == phase::MEASURE {
                    out.lat.record(t1.saturating_duration_since(sh.start), lat);
                }
            }
            Err(_) => {
                tr.abandon_txn();
                out.failed += 1;
            }
        }
        YieldNow(false).await;
    }
    out.tracer = tr.0;
    sh.outs.lock().expect("session results mutex").push(out);
}

/// Run the workload for `seconds` measured seconds.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut regs = Vec::new();
    let mut world = None;
    for _ in 0..SETUPS {
        drop(world.take());
        let (w, total, registered) = setup();
        setups.push(total.as_secs_f64());
        regs.push(registered.as_secs_f64());
        world = Some(w);
    }
    let World {
        mgr,
        hot,
        cold,
        exec,
    } = world.expect("at least one set-up");
    let setup_rss = rss_mb();

    let origin = Instant::now();
    let sh = Arc::new(Shared {
        mgr: mgr.clone(),
        hot: hot.clone(),
        cold,
        phase: AtomicU8::new(phase::WARMUP),
        origin,
        start: origin + WARMUP,
        outs: Mutex::new(Vec::new()),
    });
    for i in 0..SESSIONS {
        exec.spawn(session(sh.clone(), seed, i, traced));
    }
    let mut depth_max = 0;
    let win = run_window(
        &sh.phase,
        sh.start,
        seconds,
        || mgr.stats(),
        || {
            if traced {
                depth_max = depth_max.max(mgr.queued_waiters());
            }
        },
    );
    exec.drain();
    let peak_rss = peak_rss_mb();
    let peak_in_flight = exec.peak_in_flight();
    exec.shutdown();

    let mut ledger = Ledger::new(HOT);
    let mut lat = Lat::default();
    let mut out = Outcome::default();
    let mut tracer: Option<Tracer> = None;
    let mut bad_cold = 0;
    for s in std::mem::take(&mut *sh.outs.lock().expect("session results mutex")) {
        ledger.merge(&s.ledger);
        lat.merge(s.lat);
        out.attempted += s.attempted;
        out.failed += s.failed;
        bad_cold += s.bad_cold_reads;
        Tracer::fold(&mut tracer, s.tracer);
    }

    let mut checks = Checks::default();
    let hot_state: Vec<i64> = hot.iter().map(|o| mgr.read_committed(o, |v| *v)).collect();
    checks.add(check_state("hot keys", &ledger, |_| 0, &hot_state));
    let untouched = sh
        .cold
        .iter()
        .enumerate()
        .filter(|(i, o)| mgr.read_committed(o, |v| *v) != *i as i64)
        .count();
    checks.add(check_eq("cold keys changed", untouched as u64, 0));
    checks.add(check_eq("cold reads that saw a wrong value", bad_cold, 0));
    checks.add(check_eq(
        "top-level commits, program vs generator",
        mgr.stats().top_level_commits,
        ledger.commits,
    ));
    checks.add(check_eq(
        "waiters left queued",
        mgr.queued_waiters() as u64,
        0,
    ));
    out.checks = checks;

    e2e_metrics(
        &mut out,
        seconds,
        median_f64(&mut setups),
        (&lat, None),
        peak_rss,
        &win.steal,
    );

    let m = &mut out.layer;
    lock_metrics(&win.before, &win.after, m);
    m.insert("lock.queue_depth_max", depth_max as f64);
    m.insert("exec.peak_in_flight", peak_in_flight as f64);
    let chain_max = hot
        .iter()
        .map(|o| mgr.version_chain_len(o))
        .max()
        .unwrap_or(0);
    m.insert("mvcc.chain_len_max", chain_max as f64);
    m.insert(
        "register.ns_per_object",
        1e9 * median_f64(&mut regs) / (HOT + COLD) as f64,
    );
    m.insert("mem.setup_rss_mb", setup_rss);
    if let Some(t) = &tracer {
        span_metrics(t, m);
    }
    out.tracer = tracer;
    Ok(out)
}

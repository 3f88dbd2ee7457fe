//! `serve_pipelined`: the `ntx-serve` server in this process on loopback,
//! driven over the wire by `ntx_serve::Client` over about a million
//! counters (larger than the host's last-level cache).
//!
//! Two connections, one generator thread each, each keep a fixed window of
//! transactions in flight. A transaction is `BEGIN`, `CHILD`, a child
//! write (add a delta to key `a`), child `COMMIT`, a top-level read of key
//! `b > a` and top-level `COMMIT`. Keys are uniform and taken in ascending
//! order, so no deadlock can form. All frames of a transaction are sent
//! back to back; handles are predicted per connection (the server numbers
//! them 1, 2, … in the order `BEGIN` and `CHILD` arrive), so no frame waits
//! for a response.
//!
//! `Server` exposes its `TxManager` but no handle to its objects, so the
//! final state is read back over the wire: after the run a fresh
//! connection reads every key the ledgers touched plus a seeded sample of
//! untouched keys in one read-only transaction.

use std::collections::{BTreeSet, VecDeque};
use std::time::{Duration, Instant};

use ntx_runtime::RtConfig;
use ntx_serve::client::Client;
use ntx_serve::wire::{Request, Response};
use ntx_serve::{Server, ServerConfig};

use crate::ledger::{check_eq, check_state, Checks, Ledger};
use crate::report::{e2e_metrics, lock_metrics, span_metrics, Outcome};
use crate::sync::atomic::{AtomicU8, Ordering};
use crate::trace::{Name, Tracer};
use crate::util::{median_f64, peak_rss_mb, phase, rss_mb, run_window, Lat, Rng, WARMUP};

/// Executor workers of the server.
const WORKERS: usize = 2;
/// Untouched keys sampled by the final state check.
const UNTOUCHED_SAMPLE: usize = 4096;
/// Keyspace: larger than the host's last-level cache.
const KEYS: usize = 1 << 20;
/// Connections, one generator thread each.
const CONNS: u64 = 2;
/// Transactions each connection keeps in flight.
const WINDOW: usize = 16;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 5;

/// Start a server over [`KEYS`] counters; returns it and its start-up time.
fn setup() -> std::io::Result<(Server, Duration)> {
    let t0 = Instant::now();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: WORKERS,
            objects: KEYS,
            max_sessions: 16,
            rt: RtConfig::default(),
        },
    )?;
    Ok((server, t0.elapsed()))
}

/// Start the server `reps` times (keeping the last); returns it, the
/// median start-up time and the resident set after the last start.
fn setups(reps: usize) -> Result<(Server, f64, f64), String> {
    let mut times = Vec::new();
    let mut server = None;
    for _ in 0..reps {
        drop(server.take());
        let (s, t) = setup().map_err(|e| format!("start server: {e}"))?;
        times.push(t.as_secs_f64());
        server = Some(s);
    }
    let server = server.ok_or("no set-up ran")?;
    Ok((server, median_f64(&mut times), rss_mb()))
}

/// One planned transaction and its predicted handles.
#[derive(Clone, Copy, Debug)]
struct Plan {
    a: u32,
    b: u32,
    delta: i64,
    top: u32,
}

/// Frames per transaction.
const FRAMES: usize = 6;

impl Plan {
    fn requests(&self) -> [Request; FRAMES] {
        let (top, child) = (self.top, self.top + 1);
        [
            Request::Begin,
            Request::Child { parent: top },
            Request::Access {
                handle: child,
                obj: self.a,
                write: true,
                delta: self.delta,
            },
            Request::Commit { handle: child },
            read(top, self.b),
            Request::Commit { handle: top },
        ]
    }

    /// Whether `resp` is the success response request `i` should get.
    fn expected(&self, i: usize, resp: &Response) -> bool {
        match (i, resp) {
            (0, Response::Handle(h)) => *h == self.top,
            (1, Response::Handle(h)) => *h == self.top + 1,
            (2 | 4, Response::Value(_)) | (3 | 5, Response::Ok) => true,
            _ => false,
        }
    }
}

fn read(handle: u32, obj: u32) -> Request {
    Request::Access {
        handle,
        obj,
        write: false,
        delta: 0,
    }
}

/// One connection's generator state.
struct Conn {
    client: Client,
    rng: Rng,
    next_handle: u32,
    ledger: Ledger,
    lat: Lat,
    attempted: u64,
    failed: u64,
    frames: u64,
    tracer: Option<Tracer>,
}

impl Conn {
    fn open(server: &Server, seed: u64, stream: u64, tracer: Option<Tracer>) -> Result<Conn, String> {
        let client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        Ok(Conn {
            client,
            rng: Rng::new(seed, stream),
            next_handle: 1,
            ledger: Ledger::new(KEYS),
            lat: Lat::default(),
            attempted: 0,
            failed: 0,
            frames: 0,
            tracer,
        })
    }

    fn plan(&mut self) -> Plan {
        let (a, b) = self.rng.two_ascending(KEYS as u64);
        let delta = 1 + self.rng.below(100) as i64;
        let top = self.next_handle;
        self.next_handle += 2;
        Plan {
            a: a as u32,
            b: b as u32,
            delta,
            top,
        }
    }

    /// Send every frame of `p`; its latency runs from the first.
    fn send(&mut self, p: Plan, measured: bool) -> Result<Sent, String> {
        let start = Instant::now();
        for req in p.requests() {
            self.client.send(req).map_err(|e| format!("send: {e}"))?;
        }
        Ok(Sent {
            p,
            send: (start, Instant::now()),
            measured,
        })
    }

    /// Read every response of `s` and account for the transaction.
    fn receive(&mut self, s: &Sent, run_start: Instant) -> Result<(), String> {
        let start = Instant::now();
        let mut ok = true;
        for i in 0..FRAMES {
            let resp = self
                .client
                .read_response()
                .map_err(|e| format!("read response: {e}"))?;
            ok &= s.p.expected(i, &resp);
        }
        let end = Instant::now();
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            return Ok(());
        }
        self.ledger.commits += 1;
        self.ledger.add(s.p.a as usize, s.p.delta);
        let lat = end - s.send.0;
        if s.measured {
            self.frames += FRAMES as u64;
            self.lat.record(end.saturating_duration_since(run_start), lat);
        }
        if let Some(t) = &mut self.tracer {
            t.begin_txn(s.send.0);
            t.leaf(Name::Send, s.send.0, s.send.1);
            t.leaf(Name::Wait, start, end);
            t.end_txn(end, lat);
        }
        Ok(())
    }
}

/// A transaction whose frames are on the wire.
struct Sent {
    p: Plan,
    send: (Instant, Instant),
    measured: bool,
}

/// What the generator threads share.
struct Shared<'a> {
    server: &'a Server,
    phase: AtomicU8,
    start: Instant,
    origin: Instant,
}

/// One connection until the phase says stop.
fn connection(sh: &Shared<'_>, seed: u64, idx: u64, traced: bool) -> Result<Conn, String> {
    // A pipelined transaction mostly waits behind the others in flight on
    // its connection, so its spans cannot explain its latency.
    let tracer = traced.then(|| Tracer::unreconciled(sh.origin, idx));
    let mut c = Conn::open(sh.server, seed, 0x200 + idx, tracer)?;
    let mut inflight: VecDeque<Sent> = VecDeque::new();
    loop {
        let ph = sh.phase.load(Ordering::SeqCst);
        if ph != phase::STOP {
            while inflight.len() < WINDOW {
                let p = c.plan();
                inflight.push_back(c.send(p, ph == phase::MEASURE)?);
            }
        }
        let Some(sent) = inflight.pop_front() else {
            break;
        };
        c.receive(&sent, sh.start)?;
    }
    Ok(c)
}

/// Read every touched key and a seeded sample of untouched ones in one
/// read-only transaction over a fresh connection, and compare with the
/// ledger.
fn check_final_state(server: &Server, ledger: &Ledger, seed: u64) -> Result<(), String> {
    let keys = ledger.keys();
    let mut pick: BTreeSet<usize> = (0..keys).filter(|&k| ledger.expect(k, 0) != 0).collect();
    let mut rng = Rng::new(seed, 0x400);
    for _ in 0..UNTOUCHED_SAMPLE.min(keys) {
        pick.insert(rng.below(keys as u64) as usize);
    }
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let top = client.begin().map_err(|e| format!("begin: {e}"))?;
    // A ledger over the picked keys alone, holding their expected values.
    let mut expected = Ledger::new(pick.len());
    let mut actual = Vec::with_capacity(pick.len());
    // Pipelined in batches so neither socket buffer fills up.
    let order: Vec<usize> = pick.into_iter().collect();
    for chunk in order.chunks(256) {
        for &k in chunk {
            client
                .send(read(top, k as u32))
                .map_err(|e| format!("send: {e}"))?;
        }
        for _ in chunk {
            match client.read_response().map_err(|e| format!("read: {e}"))? {
                Response::Value(v) => actual.push(v),
                other => return Err(format!("final read answered {other:?}")),
            }
        }
    }
    for (i, &k) in order.iter().enumerate() {
        expected.add(i, ledger.expect(k, 0));
    }
    match client.commit(top).map_err(|e| format!("commit: {e}"))? {
        Ok(()) => check_state("server counters", &expected, |_| 0, &actual),
        Err(code) => Err(format!("final read-only commit answered {code:?}")),
    }
}

/// Run the workload for `seconds` measured seconds.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let (server, setup_s, setup_rss) = setups(SETUPS)?;
    let origin = Instant::now();
    let sh = Shared {
        server: &server,
        phase: AtomicU8::new(phase::WARMUP),
        start: origin + WARMUP,
        origin,
    };
    let mut live_max = 0;
    let mut depth_max = 0;
    let mut samples = 0u64;
    let (results, win) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|i| {
                let sh = &sh;
                s.spawn(move || connection(sh, seed, i, traced))
            })
            .collect();
        let window = run_window(
            &sh.phase,
            sh.start,
            seconds,
            || server.manager().stats(),
            || {
                live_max = live_max.max(server.live_sessions());
                // Counting queued waiters locks every object's mutex; in the
                // traced run only, and only every tenth sample.
                if traced && samples.is_multiple_of(10) {
                    depth_max = depth_max.max(server.manager().queued_waiters());
                }
                samples += 1;
            },
        );
        let results: Vec<Result<Conn, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator panicked".into()))
            })
            .collect();
        (results, window)
    });
    // Before the checks: the final read-only transaction holds a read lock
    // on every key it checks.
    let peak_rss = peak_rss_mb();
    let mut ledger = Ledger::new(KEYS);
    let mut lat = Lat::default();
    let mut out = Outcome::default();
    let mut tracer: Option<Tracer> = None;
    let mut frames = 0;
    for r in results {
        let c = r?;
        ledger.merge(&c.ledger);
        lat.merge(c.lat);
        out.attempted += c.attempted;
        out.failed += c.failed;
        frames += c.frames;
        Tracer::fold(&mut tracer, c.tracer);
    }

    let mut checks = Checks::default();
    checks.add(check_eq(
        "top-level commits, program vs generator",
        server.manager().stats().top_level_commits,
        ledger.commits,
    ));
    checks.add(check_final_state(&server, &ledger, seed));
    checks.add(check_eq(
        "objects registered",
        server.manager().object_count() as u64,
        KEYS as u64,
    ));
    out.checks = checks;

    e2e_metrics(&mut out, seconds, setup_s, (&lat, None), peak_rss, &win.steal);

    let m = &mut out.layer;
    lock_metrics(&win.before, &win.after, m);
    m.insert("wire.frames", frames as f64);
    m.insert("exec.peak_in_flight", live_max as f64);
    m.insert("lock.queue_depth_max", depth_max as f64);
    m.insert("register.ns_per_object", 1e9 * setup_s / KEYS as f64);
    m.insert("mem.setup_rss_mb", setup_rss);
    if let Some(t) = &tracer {
        span_metrics(t, m);
    }
    out.tracer = tracer;
    Ok(out)
}

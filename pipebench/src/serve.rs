//! `serve_warm`: requests over TCP against an in-process server whose
//! every plan space was prepared during set-up, so every request is a
//! cache hit.
//!
//! The server runs at its defaults with cross products on. Two
//! connections carry the load, and the generator never uses more than
//! two threads. The untraced run is a closed loop at saturation: one
//! thread keeps a fixed number of requests in flight on each connection.
//! The traced run adds open-loop phases: a sender thread sends on a
//! Poisson schedule and a receiver thread timestamps replies, and a
//! request's latency counts from its scheduled send time. Every reply
//! is checked byte for byte against `ServerState::handle_encoded` on
//! the same request. The reference replies are computed in set-up by a
//! second, independent server state.

use crate::queries::{SERVED_SYNTH, TPCH_SQL};
use crate::report::Outcome;
use crate::schedule::{self, Arrival};
use crate::stats::{self, quantile};
use crate::trace::Tracer;
use plansample_bignum::Nat;
use plansample_core::{PlanBatch, PlanService, PreparedQuery};
use plansample_datagen::joingraph::JoinGraphSpec;
use plansample_optimizer::OptimizerConfig;
use plansample_query::QuerySpec;
use plansample_serve::reactor::{Interest, Poller};
use plansample_serve::server::{self, ServerConfig, ServerHandle};
use plansample_serve::state::to_wire_plan;
use plansample_serve::wire::{
    self, ErrorCode, Request, Response, SamplesEncoder, StatsReply, Workload,
};
use plansample_serve::{AdmissionConfig, ServerState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rate of the light phase, requests per second: about a
/// quarter of the closed-loop saturation rate (~13,700/s on the 2-core
/// host the baseline in `pipebench/README.md` came from).
const LIGHT_RPS: f64 = 3_500.0;
/// Offered rate of the heavy phase: about three quarters of saturation.
const HEAVY_RPS: f64 = 10_000.0;
/// The fixed rate ladder behind `warm_max_rps`, climbed until a rung
/// misses the latency limit or its backlog grows.
const LADDER_RPS: [f64; 8] = [
    6_000.0, 7_000.0, 8_000.0, 9_000.0, 10_000.0, 11_000.0, 12_000.0, 13_000.0,
];
/// The p99 latency limit a ladder rung must meet, in microseconds.
const P99_LIMIT_US: f64 = 10_000.0;
/// Distinct requests the schedule draws from: 48 per served space.
const POOL: usize = 48 * (TPCH_SQL.len() + SERVED_SYNTH.len());
/// How long replies may trail the last scheduled send.
const DRAIN: Duration = Duration::from_secs(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Sample(u32),
    Unrank,
    Count,
    Best,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Sample(_) => "sample_batch",
            Op::Unrank => "unrank",
            Op::Count => "count",
            Op::Best => "best",
        }
    }
}

const OPS: [&str; 4] = ["sample_batch", "unrank", "count", "best"];

/// One distinct request of the pool, with its expected reply.
struct Template {
    space: usize,
    op: Op,
    request: Request,
    /// `handle_encoded(request, 0)` from the reference state.
    reference: Vec<u8>,
}

/// A served plan space and what the benchmark's own replay needs of it.
struct Space {
    workload: Workload,
    /// The replica service of a synthetic spec; `None` for SQL, which
    /// the server's own TPC-H service answers.
    replica: Option<PlanService>,
    prepared: Arc<PreparedQuery>,
}

/// Everything set-up leaves for the timed part.
struct Served {
    server: ServerHandle,
    conns: Vec<TcpStream>,
    spaces: Vec<Space>,
    pool: Vec<Template>,
}

fn workloads() -> Vec<Workload> {
    let mut w: Vec<Workload> = TPCH_SQL
        .iter()
        .map(|(_, sql)| Workload::Sql(sql.to_string()))
        .collect();
    w.extend(
        SERVED_SYNTH
            .iter()
            .map(|&(topology, relations, seed)| Workload::Synthetic {
                topology,
                relations,
                seed,
            }),
    );
    w
}

fn config() -> OptimizerConfig {
    OptimizerConfig::with_cross_products()
}

/// Sends one request on an idle connection and waits for its reply.
fn call(conn: &TcpStream, request: &Request, id: u64) -> std::io::Result<Response> {
    let mut conn = conn;
    conn.write_all(&wire::frame(&request.encode(id)))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if let Some((payload, _)) = wire::split_frame(&buf).map_err(std::io::Error::other)? {
            let (got, response) = Response::decode(payload).map_err(std::io::Error::other)?;
            if got != id {
                return Err(std::io::Error::other(format!(
                    "reply for id {got}, not {id}"
                )));
            }
            return Ok(response);
        }
        let n = conn.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn stats_call(conn: &TcpStream, id: u64) -> StatsReply {
    match call(conn, &Request::Stats, id) {
        Ok(Response::Stats(s)) => s,
        other => panic!("stats probe failed: {other:?}"),
    }
}

/// Starts the server, prepares every space over the wire, and builds
/// the request pool with its reference replies.
fn setup(seed: u64, connections: usize) -> Served {
    let server = server::start(ServerConfig {
        cross_products: true,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let conns: Vec<TcpStream> = (0..connections)
        .map(|_| {
            let c = TcpStream::connect(server.addr()).expect("connect");
            c.set_nodelay(true).expect("nodelay");
            c
        })
        .collect();
    for (i, wl) in workloads().into_iter().enumerate() {
        match call(&conns[0], &Request::Prepare(wl), 1 + i as u64) {
            Ok(Response::Prepared { .. }) => {}
            other => panic!("prepare over the wire failed: {other:?}"),
        }
    }

    // The benchmark's handles on the same warm artifacts: the server's
    // own TPC-H service, and a replica service per synthetic spec (the
    // server keeps those private).
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let spaces: Vec<Space> = workloads()
        .into_iter()
        .map(|workload| {
            let (replica, query) = match &workload {
                Workload::Sql(sql) => {
                    let spec = plansample_sql::parse(&catalog, sql)
                        .expect("SQL parses")
                        .spec;
                    (None, spec)
                }
                Workload::Synthetic {
                    topology,
                    relations,
                    seed,
                } => {
                    let (cat, q) =
                        JoinGraphSpec::new(*topology, *relations as usize, *seed).build();
                    (Some(PlanService::new(cat, config(), 1)), q)
                }
            };
            let service = replica.as_ref().unwrap_or(server.state().tpch_service());
            let prepared = service.get_or_prepare(&query).expect("space prepares");
            Space {
                workload,
                replica,
                prepared,
            }
        })
        .collect();

    // The request pool has a fixed make-up, so every seed offers the
    // same mix: per space 24 sample_batch (8 each at k = 1, 16, 64, so
    // 50%), 10 unrank (~20%), 7 count and 7 best (~15% each). The seed
    // draws the sampling seeds and the ranks.
    let reference = ServerState::new(config(), 64, None, AdmissionConfig::default(), 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_a11d);
    let mut pool = Vec::with_capacity(POOL);
    for (space, s) in spaces.iter().enumerate() {
        let wl = || s.workload.clone();
        let mut add = |op: Op, request: Request| {
            let reference = reference.handle_encoded(&request, 0);
            pool.push(Template {
                space,
                op,
                request,
                reference,
            });
        };
        for k in [1u32, 16, 64] {
            for _ in 0..8 {
                add(Op::Sample(k), Request::SampleBatch(wl(), rng.gen(), k));
            }
        }
        for _ in 0..10 {
            let rank = Nat::random_below(&mut rng, s.prepared.total());
            add(Op::Unrank, Request::Unrank(wl(), rank));
        }
        for _ in 0..7 {
            add(Op::Count, Request::Count(wl()));
            add(Op::Best, Request::Best(wl()));
        }
    }
    assert_eq!(pool.len(), POOL);
    Served {
        server,
        conns,
        spaces,
        pool,
    }
}

/// Whether `reply` is the reference reply with `id` in the header
/// (bytes 2..10 of a payload hold the request id).
fn reply_matches(reply: &[u8], reference: &[u8], id: u64) -> bool {
    reply.len() == reference.len()
        && reply.len() >= 10
        && reply[..2] == reference[..2]
        && reply[2..10] == id.to_le_bytes()
        && reply[10..] == reference[10..]
}

/// Lowers this thread's timer slack to 1 ns, so a sleep until a send is
/// due overshoots by the scheduler's wake-up latency only, not by the
/// default 50 µs slack.
fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: std::os::raw::c_int = 29;
    extern "C" {
        fn prctl(option: std::os::raw::c_int, ...) -> std::os::raw::c_int;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes the calling thread's timer slack; no memory is
    // passed to the kernel.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::os::raw::c_ulong);
    }
}

/// The outcome of one open-loop phase.
struct Phase {
    /// Latency of each request in send order; `NaN` when it failed.
    latencies_us: Vec<f64>,
    /// How late each send left against its schedule.
    late_us: Vec<f64>,
    /// Replies received per second of the phase.
    achieved_rps: f64,
    /// Requests answered `Overloaded`.
    shed: u64,
    /// Requests unanswered, or answered with other bytes than the
    /// reference reply (sheds excluded).
    failed: u64,
}

impl Phase {
    fn ok_sorted(&self) -> Vec<f64> {
        let ok: Vec<f64> = self
            .latencies_us
            .iter()
            .copied()
            .filter(|x| x.is_finite())
            .collect();
        stats::sorted(&ok)
    }

    /// The `q`-quantile of each of `windows` consecutive slices of the
    /// phase, and their median: one stall moves a single window, not the
    /// figure.
    fn windowed(&self, q: f64, windows: usize) -> f64 {
        let size = self.latencies_us.len().div_ceil(windows).max(1);
        let per: Vec<f64> = self
            .latencies_us
            .chunks(size)
            .map(|w| {
                let ok: Vec<f64> = w.iter().copied().filter(|x| x.is_finite()).collect();
                quantile(&stats::sorted(&ok), q)
            })
            .filter(|x| x.is_finite())
            .collect();
        stats::median(&per)
    }

    fn sustained(&self) -> bool {
        self.failed + self.shed == 0 && schedule::sustained(&self.latencies_us)
    }
}

/// Runs one open-loop phase. Request ids are `id_base + i + 1`, unique
/// across phases, so a straggler from an earlier phase is never taken
/// for a reply of this one.
fn run_phase(served: &Served, arrivals: &[Arrival], id_base: u64) -> Phase {
    let n = arrivals.len();
    let conns = &served.conns;
    let pool = &served.pool;
    let start = Instant::now() + Duration::from_millis(2);
    let horizon = Duration::from_nanos(arrivals.last().map_or(0, |a| a.due_ns));
    let (late_us, (latencies_us, bad, shed, received)) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            tighten_timer_slack();
            let mut late = Vec::with_capacity(n);
            for (i, a) in arrivals.iter().enumerate() {
                let due = start + Duration::from_nanos(a.due_ns);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                late.push(due.elapsed().as_secs_f64() * 1e6);
                let id = id_base + i as u64 + 1;
                let frame = wire::frame(&pool[a.template as usize].request.encode(id));
                let mut conn = &conns[i % conns.len()];
                conn.write_all(&frame).expect("send request");
            }
            late
        });
        let receiver = s.spawn(|| {
            let mut lat = vec![f64::NAN; n];
            let (mut bad, mut shed, mut received) = (0u64, 0u64, 0usize);
            let mut bufs = vec![Vec::<u8>::new(); conns.len()];
            let mut chunk = vec![0u8; 256 * 1024];
            let mut poller = Poller::new();
            let deadline = start + horizon + DRAIN;
            while received < n && Instant::now() < deadline {
                poller.clear();
                for (i, c) in conns.iter().enumerate() {
                    poller.register(c.as_raw_fd(), i as u64, Interest::READ);
                }
                let events = poller.wait(Some(Duration::from_millis(20))).expect("poll");
                for ev in events {
                    let c = ev.token as usize;
                    let got = (&conns[c]).read(&mut chunk).expect("receive reply");
                    assert!(got > 0, "server closed a connection");
                    let now = Instant::now();
                    bufs[c].extend_from_slice(&chunk[..got]);
                    let mut used = 0;
                    while let Some((payload, len)) =
                        wire::split_frame(&bufs[c][used..]).expect("reply framing")
                    {
                        used += len;
                        let id = u64::from_le_bytes(payload[2..10].try_into().expect("8 bytes"));
                        let Some(i) = id.checked_sub(id_base + 1).map(|i| i as usize) else {
                            continue;
                        };
                        if i >= n || lat[i].is_finite() {
                            continue;
                        }
                        received += 1;
                        let a = arrivals[i];
                        let t = &pool[a.template as usize];
                        if reply_matches(payload, &t.reference, id) {
                            let due = start + Duration::from_nanos(a.due_ns);
                            lat[i] = now.duration_since(due).as_secs_f64() * 1e6;
                        } else if matches!(
                            Response::decode(payload),
                            Ok((
                                _,
                                Response::Error {
                                    code: ErrorCode::Overloaded,
                                    ..
                                }
                            ))
                        ) {
                            shed += 1;
                        } else {
                            bad += 1;
                            if bad <= 3 {
                                eprintln!(
                                    "pipebench: serve_warm reply {id} ({}) differs from \
                                     handle_encoded: {:?}",
                                    t.op.name(),
                                    Response::decode(payload).map(|r| r.1)
                                );
                            }
                        }
                    }
                    bufs[c].drain(..used);
                }
            }
            (lat, bad, shed, received)
        });
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });
    let elapsed = start.elapsed().as_secs_f64().max(horizon.as_secs_f64());
    let missing = (n - received) as u64;
    Phase {
        achieved_rps: (received as u64 - bad - shed) as f64 / elapsed,
        latencies_us,
        late_us,
        shed,
        failed: bad + missing,
    }
}

/// Requests kept in flight on each connection by the saturation phase.
const SATURATION_DEPTH: usize = 32;

/// What the saturation phase measured.
struct Saturation {
    /// Replies per second.
    rps: f64,
    /// Round-trip times, from each request's send to its reply.
    latencies_us: Vec<f64>,
    attempted: u64,
    /// Replies that did not match their reference, and requests left
    /// unanswered.
    failed: u64,
}

/// The closed-loop saturation phase: one thread keeps
/// `SATURATION_DEPTH` requests in flight on every connection, sending
/// the next as each reply lands, for `secs`. Replies and round trips
/// count over the last 90% of the phase; the first 10% fills the
/// pipeline.
fn saturate(served: &Served, secs: f64, seed: u64, id_base: u64) -> Saturation {
    let conns = &served.conns;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a7);
    let mut sent: Vec<(u32, Instant)> = Vec::new();
    let mut send = |c: usize, sent: &mut Vec<(u32, Instant)>| {
        let t = rng.gen_range(0..served.pool.len() as u32);
        let id = id_base + sent.len() as u64 + 1;
        let frame = wire::frame(&served.pool[t as usize].request.encode(id));
        sent.push((t, Instant::now()));
        (&conns[c]).write_all(&frame).expect("send request");
    };
    for c in 0..conns.len() {
        for _ in 0..SATURATION_DEPTH {
            send(c, &mut sent);
        }
    }
    let start = Instant::now();
    let (warm, stop) = (
        start + Duration::from_secs_f64(0.1 * secs),
        start + Duration::from_secs_f64(secs),
    );
    let (mut bad, mut outstanding) = (0u64, SATURATION_DEPTH * conns.len());
    let mut latencies_us = Vec::new();
    let mut bufs = vec![Vec::<u8>::new(); conns.len()];
    let mut chunk = vec![0u8; 256 * 1024];
    let mut poller = Poller::new();
    let drain_by = stop + DRAIN;
    while outstanding > 0 && Instant::now() < drain_by {
        poller.clear();
        for (i, c) in conns.iter().enumerate() {
            poller.register(c.as_raw_fd(), i as u64, Interest::READ);
        }
        for ev in poller.wait(Some(Duration::from_millis(20))).expect("poll") {
            let c = ev.token as usize;
            let got = (&conns[c]).read(&mut chunk).expect("receive reply");
            assert!(got > 0, "server closed a connection");
            let now = Instant::now();
            bufs[c].extend_from_slice(&chunk[..got]);
            let mut used = 0;
            let mut replies = 0;
            while let Some((payload, len)) =
                wire::split_frame(&bufs[c][used..]).expect("reply framing")
            {
                used += len;
                let id = u64::from_le_bytes(payload[2..10].try_into().expect("8 bytes"));
                let Some(&(t, at)) = id
                    .checked_sub(id_base + 1)
                    .and_then(|i| sent.get(i as usize))
                else {
                    continue;
                };
                replies += 1;
                if !reply_matches(payload, &served.pool[t as usize].reference, id) {
                    bad += 1;
                } else if now > warm && now <= stop {
                    latencies_us.push(now.duration_since(at).as_secs_f64() * 1e6);
                }
            }
            bufs[c].drain(..used);
            outstanding -= replies;
            if now < stop {
                for _ in 0..replies {
                    send(c, &mut sent);
                    outstanding += 1;
                }
            }
        }
    }
    Saturation {
        rps: latencies_us.len() as f64 / (0.9 * secs),
        latencies_us,
        attempted: sent.len() as u64,
        failed: bad + outstanding as u64,
    }
}

/// The rate at which p99 crosses the limit: the highest sustained rung's
/// achieved rate, interpolated towards the next rung by how much of the
/// latency headroom that rung used up.
fn max_rate(rungs: &[(f64, f64, f64, bool)]) -> f64 {
    // (offered, achieved, p99, ok)
    let last_ok = rungs.iter().rposition(|r| r.3);
    match last_ok {
        None => rungs.first().map_or(f64::NAN, |r| r.1),
        Some(i) => {
            let (offered, achieved, p99, _) = rungs[i];
            match rungs.get(i + 1) {
                Some(&(next, _, next_p99, _)) if next_p99.is_finite() && next_p99 > p99 => {
                    let f = ((P99_LIMIT_US - p99) / (next_p99 - p99)).clamp(0.0, 1.0);
                    achieved + f * (next - offered)
                }
                _ => achieved,
            }
        }
    }
}

/// Checks the server's counters over a timed window: a warm server sheds
/// nothing and misses nothing.
fn check_window(before: &StatsReply, after: &StatsReply, out: &mut Outcome) {
    let shed_queue = after.shed_queue - before.shed_queue;
    let shed_prepare = after.shed_prepare - before.shed_prepare;
    let misses = after.misses - before.misses;
    out.check(shed_queue + shed_prepare + misses == 0, || {
        format!("serve_warm shed {shed_queue}+{shed_prepare} and missed {misses} in the window")
    });
}

/// Runs `serve_warm`. Untraced, all of `seconds` is the closed-loop
/// saturation phase. Traced, 15% goes to the light phase, 15% to the
/// heavy phase, 20% to the ladder and 50% to replaying the light
/// phase's requests through the layers.
pub fn run(seed: u64, seconds: f64, trace: bool, setups: usize) -> Outcome {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(
        nproc >= 2,
        "serve_warm needs 2 cores: its generator runs a sender and a receiver thread"
    );
    let mut out = Outcome::default();
    let (served, setup_s) = crate::report::median_setup(setups, || setup(seed, 2));
    out.put("setup_s", setup_s, "s");

    // Untraced: the closed-loop saturation phase. Traced: the open-loop
    // light and heavy phases and the ladder, then the in-process replay.
    let before = stats_call(&served.conns[0], u64::MAX - 1);
    if !trace {
        let sat = saturate(&served, seconds, seed, 1_000_000);
        let after = stats_call(&served.conns[0], u64::MAX - 2);
        out.attempted = sat.attempted;
        out.failed = sat.failed;
        check_window(&before, &after, &mut out);
        out.put("p50_us", stats::median(&sat.latencies_us), "us");
        out.put("rate_per_s", sat.rps, "1/s");
        return out;
    }
    let mut id_base = 1_000_000u64;
    let mut phase = |rate: f64, secs: f64, salt: u64| {
        let arrivals = schedule::poisson(seed ^ salt, rate, secs, POOL);
        let p = run_phase(&served, &arrivals, id_base);
        id_base += arrivals.len() as u64 + 1;
        (arrivals, p)
    };
    let (light_arrivals, light) = phase(LIGHT_RPS, 0.15 * seconds, 0x11);
    let (_, heavy) = phase(HEAVY_RPS, 0.15 * seconds, 0x22);
    let after = stats_call(&served.conns[0], u64::MAX - 2);
    out.attempted = (light.latencies_us.len() + heavy.latencies_us.len()) as u64;
    out.failed = light.failed + light.shed + heavy.failed + heavy.shed;
    check_window(&before, &after, &mut out);

    // Past saturation a rung may shed; that ends the climb but is no
    // failure. A reply with other bytes is one on any rung.
    let mut rungs = Vec::new();
    let mut ladder_shed = 0;
    let rung_secs = 0.2 * seconds / LADDER_RPS.len() as f64;
    for (i, &rate) in LADDER_RPS.iter().enumerate() {
        let (arrivals, p) = phase(rate, rung_secs, 0x33 + i as u64);
        out.attempted += arrivals.len() as u64;
        out.failed += p.failed;
        ladder_shed += p.shed;
        let p99 = p.windowed(0.99, 3);
        let ok = p.sustained() && p99 <= P99_LIMIT_US;
        rungs.push((rate, p.achieved_rps, p99, ok));
        if !ok {
            break;
        }
    }
    let (l, h) = (light.ok_sorted(), heavy.ok_sorted());
    let max_rps = max_rate(&rungs);

    // The traced run reports the open-loop figures as diagnostics, then
    // replays the light phase's requests in process through the layers'
    // public calls.
    out.metrics.clear();
    for (name, s) in [("light", &l), ("heavy", &h)] {
        out.put(format!("warm_p50_us.{name}"), quantile(s, 0.5), "us");
        out.put(format!("warm_p99_us.{name}"), quantile(s, 0.99), "us");
        out.put(format!("warm_p999_us.{name}"), quantile(s, 0.999), "us");
        out.put(format!("warm_samples.{name}"), s.len() as f64, "count");
        out.put(
            format!("warm_beyond_p99.{name}"),
            stats::beyond(s, 0.99) as f64,
            "count",
        );
    }
    out.put("warm_max_rps", max_rps, "1/s");
    out.put(
        "warm_sustained.light",
        f64::from(u8::from(light.sustained())),
        "count",
    );
    out.put(
        "warm_sustained.heavy",
        f64::from(u8::from(heavy.sustained())),
        "count",
    );
    out.put("ladder.shed", ladder_shed as f64, "count");
    let late: Vec<f64> = light
        .late_us
        .iter()
        .chain(&heavy.late_us)
        .copied()
        .collect();
    out.put(
        "loadgen.late_us.p99",
        quantile(&stats::sorted(&late), 0.99),
        "us",
    );
    out.put(
        "loadgen.late_us.p50",
        quantile(&stats::sorted(&late), 0.5),
        "us",
    );
    out.put(
        "server.shed_queue",
        (after.shed_queue - before.shed_queue) as f64,
        "count",
    );
    out.put(
        "server.shed_prepare",
        (after.shed_prepare - before.shed_prepare) as f64,
        "count",
    );
    out.put(
        "server.misses",
        (after.misses - before.misses) as f64,
        "count",
    );
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    out.put(
        "service.hit_ratio.warm",
        (after.hits - before.hits) as f64 / lookups.max(1) as f64,
        "ratio",
    );
    replay(&served, &light_arrivals, &light, 0.5 * seconds, &mut out);
    out
}

/// Replays the light phase's requests in process: first untraced
/// through `ServerState::handle_encoded` (the end-to-end reference of
/// the ledger), then traced and untraced through the layer calls
/// `handle_encoded` makes, for `seconds` in all.
fn replay(served: &Served, arrivals: &[Arrival], light: &Phase, seconds: f64, out: &mut Outcome) {
    let state = served.server.state();
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let stop = Instant::now() + Duration::from_secs_f64(seconds);

    // Each request three ways, in rotating order: end to end through
    // `handle_encoded` (untraced), and through the layer calls traced
    // and untraced.
    let mut handle_ns = vec![(0u64, 0u64); served.pool.len()];
    let mut by_op = [(0u64, 0u64); 4];
    let mut reply_bytes = 0usize;
    let mut n_e2e = 0usize;
    let mut traced = Tracer::default();
    let mut plain = Tracer::disabled();
    let (mut traced_ns, mut plain_ns) = (0u64, 0u64);
    let mut batch = PlanBatch::new();
    'replay: loop {
        for a in arrivals {
            let t = &served.pool[a.template as usize];
            for way in 0..3 {
                let start = Instant::now();
                match (way + n_e2e) % 3 {
                    0 => {
                        let reply = state.handle_encoded(&t.request, 7);
                        let ns = start.elapsed().as_nanos() as u64;
                        out.check(reply_matches(&reply, &t.reference, 7), || {
                            format!(
                                "in-process {} reply differs from the reference",
                                t.op.name()
                            )
                        });
                        reply_bytes += reply.len();
                        let h = &mut handle_ns[a.template as usize];
                        *h = (h.0 + ns, h.1 + 1);
                        let op = OPS.iter().position(|&x| x == t.op.name()).expect("op");
                        by_op[op] = (by_op[op].0 + ns, by_op[op].1 + 1);
                    }
                    1 => {
                        let reply = replay_one(&mut traced, served, &catalog, t, &mut batch);
                        traced_ns += start.elapsed().as_nanos() as u64;
                        out.check(reply_matches(&reply, &t.reference, 7), || {
                            format!("replayed {} reply differs from the reference", t.op.name())
                        });
                    }
                    _ => {
                        replay_one(&mut plain, served, &catalog, t, &mut batch);
                        plain_ns += start.elapsed().as_nanos() as u64;
                    }
                }
            }
            n_e2e += 1;
            if Instant::now() > stop {
                break 'replay;
            }
        }
    }
    let e2e_ns: u64 = by_op.iter().map(|o| o.0).sum();
    let self_ns = traced.self_sum_ns() as f64;
    out.put(
        "ledger.unaccounted_pct.serve_warm",
        100.0 * (e2e_ns as f64 - self_ns) / e2e_ns as f64,
        "%",
    );
    out.put(
        "trace.overhead_pct.serve_warm",
        100.0 * (traced_ns as f64 - plain_ns as f64) / plain_ns as f64,
        "%",
    );

    let us = |layer: &str| traced.layer(layer).mean_ns() / 1e3;
    out.put("sql.parse_us", us("sql.parse"), "us");
    out.put("service.lookup_us", us("service.lookup"), "us");
    out.put("sample.unrank_us", us("sample.unrank"), "us");
    out.put("datagen.spec_build_us", us("datagen.spec_build"), "us");
    out.put("wire.reply_encode_us", us("wire.reply_encode"), "us");
    for (op, (ns, n)) in OPS.iter().zip(by_op) {
        out.put(
            format!("state.handle_us.{op}"),
            ns as f64 / n.max(1) as f64 / 1e3,
            "us",
        );
    }
    out.put(
        "wire.reply_bytes",
        reply_bytes as f64 / n_e2e as f64,
        "bytes",
    );

    // Layer attributions measured by direct calls (not in the ledger
    // sum: they happen inside the calls above).
    let q8 = &served.spaces[3].prepared;
    let mut rng = StdRng::seed_from_u64(1);
    let time_ns = |reps: usize, f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        t.elapsed().as_nanos() as f64 / reps as f64
    };
    out.put(
        "threadpool.resolve_us",
        time_ns(2_000, &mut || {
            std::hint::black_box(threadpool::num_threads());
        }) / 1e3,
        "us",
    );
    for k in [1usize, 16, 64] {
        let ns = time_ns(2_000 / k.max(4), &mut || {
            q8.sample_batch_flat(&mut rng, k, &mut batch);
        });
        out.put(format!("sample.fill_us.k{k}"), ns / 1e3, "us");
    }
    let requests: Vec<&Request> = served.pool.iter().map(|t| &t.request).collect();
    let mut j = 0;
    out.put(
        "wire.encode_ns",
        time_ns(20_000, &mut || {
            std::hint::black_box(requests[j % requests.len()].encode(j as u64));
            j += 1;
        }),
        "ns",
    );
    let replies: Vec<&[u8]> = served.pool.iter().map(|t| &t.reference[..]).collect();
    let decode_ns = time_ns(5_000, &mut || {
        std::hint::black_box(Response::decode(replies[j % replies.len()]).expect("decodes"));
        j += 1;
    });
    out.put("wire.decode_us", decode_ns / 1e3, "us");
    let encode_ns = out
        .metrics
        .iter()
        .find(|m| m.name == "wire.encode_ns")
        .map_or(0.0, |m| m.value);

    // Reactor time: round trip minus server work minus client wire work.
    let mut wait = Vec::new();
    for (a, &lat) in arrivals.iter().zip(&light.latencies_us) {
        let (ns, n) = handle_ns[a.template as usize];
        if lat.is_finite() && n > 0 {
            wait.push(lat - (ns as f64 / n as f64 + encode_ns) / 1e3);
        }
    }
    let wait = stats::sorted(&wait);
    out.put("reactor.wait_us.p50", quantile(&wait, 0.5), "us");
    out.put("reactor.wait_us.p99", quantile(&wait, 0.99), "us");
}

/// One request through the layer calls `ServerState::handle_encoded`
/// makes for it, each in its own span.
fn replay_one(
    tr: &mut Tracer,
    served: &Served,
    catalog: &plansample_catalog::Catalog,
    t: &Template,
    batch: &mut PlanBatch,
) -> Vec<u8> {
    let space = &served.spaces[t.space];
    let query: QuerySpec = match &space.workload {
        Workload::Sql(sql) => tr.span("sql.parse", |_| {
            plansample_sql::parse(catalog, sql)
                .expect("SQL parses")
                .spec
        }),
        Workload::Synthetic {
            topology,
            relations,
            seed,
        } => tr.span("datagen.spec_build", |_| {
            JoinGraphSpec::new(*topology, *relations as usize, *seed)
                .build()
                .1
        }),
    };
    let service = space
        .replica
        .as_ref()
        .unwrap_or(served.server.state().tpch_service());
    let p = tr.span("service.lookup", |_| {
        assert!(service.is_cached(&query), "served space is cached");
        service.get_or_prepare(&query).expect("cache hit")
    });
    let id = 7;
    match (&t.request, t.op) {
        (Request::SampleBatch(_, seed, _), Op::Sample(k)) => {
            let mut rng = StdRng::seed_from_u64(*seed);
            tr.span("sample.fill", |_| {
                p.sample_batch_flat(&mut rng, k as usize, batch)
            });
            let costs: Vec<f64> = tr.span("cost", |_| {
                batch.iter().map(|ids| p.scaled_cost_ids(ids)).collect()
            });
            tr.span("wire.reply_encode", |_| {
                let mut enc = SamplesEncoder::new(id);
                for (ids, cost) in batch.iter().zip(costs) {
                    enc.push(ids.iter().map(|i| (i.group.0, i.index as u32)), cost);
                }
                enc.finish()
            })
        }
        (Request::Unrank(_, rank), Op::Unrank) => {
            let plan = tr.span("sample.unrank", |_| p.unrank(rank).expect("rank in range"));
            let cost = tr.span("cost", |_| p.scaled_cost(&plan));
            tr.span("wire.reply_encode", |_| {
                Response::Plan(to_wire_plan(&plan), cost).encode(id)
            })
        }
        (_, Op::Count) => tr.span("wire.reply_encode", |_| {
            Response::Count(p.total().clone()).encode(id)
        }),
        (_, Op::Best) => tr.span("wire.reply_encode", |_| {
            let (plan, cost) = p.best();
            Response::Best(to_wire_plan(plan), cost).encode(id)
        }),
        _ => unreachable!("template op matches its request"),
    }
}

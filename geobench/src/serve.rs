//! The `serve-direct-x16` workload: a closed loop of `nproc` keep-alive
//! clients against one epoll `SocketServer` at corpus scale 16, sending the
//! paper set's 14,160 (query, vantage-point GPS) pairs in seeded-shuffled
//! order. Its traced run also measures the router and shard layers on a
//! 2 shards × 2 replicas `ShardedCluster` at corpus scale 1.

use crate::layers::{self, search_request, ProbeInput};
use crate::oracle;
use crate::trace::{Span, Tracer};
use crate::util::{
    median, nproc, peak_rss_mb, percentile, secs, steal_since, CalmGate, CpuTicks, Metric, Outcome,
    CONTENDED,
};
use geoserp_core::corpus::WebCorpus;
use geoserp_core::engine::shard::max_partials;
use geoserp_core::engine::{
    EngineConfig, Retriever, SearchEngine, SearchIndex, SearchService, SEARCH_HOST,
};
use geoserp_core::geo::{Granularity, Seed, UsGeography, VantagePoints};
use geoserp_core::net::{
    encode_request, encode_response, parse_response, Request, Response, ShardRetrieveRequest,
    SimNet, Status, WireLimits,
};
use geoserp_core::obs::{MetricsSnapshot, ObsHub};
use geoserp_core::serve::{
    ClusterConfig, RemoteRetriever, ServeConfig, ServedWorld, ShardedCluster, SocketServer,
};
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Corpus scale of the served world.
const SCALE: u32 = 16;
/// Corpus scale of the traced run's 2×2 cluster.
const CLUSTER_SCALE: u32 = 1;
/// How long the traced run loads the cluster to read its counters.
const CLUSTER_LOAD: Duration = Duration::from_secs(2);
/// Requests compared byte for byte against the reference before the load.
const SAMPLE: usize = 100;
/// Load rounds per run, each against a freshly started server; the figures
/// pool the rounds, `setup_s` is the median start-up.
const ROUNDS: usize = 5;
/// Rounds measured again at most, per run, when the host starved them.
const REDOS: usize = 5;
/// Longest wait per run for a calm host before rounds.
const CALM_BUDGET: Duration = Duration::from_secs(20);
/// Requests a client takes per turn; the run's deadline is checked between
/// turns, so every client finishes whole turns.
const CHUNK: usize = 8;
/// Where the load spills served bodies for checking.
const OUT_DIR: &str = "geobench/out";
/// Client socket timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// The serve tier's engine: paper defaults with the per-IP limit raised
/// (every client shares 127.0.0.1).
fn engine_config() -> EngineConfig {
    ServeConfig::new().engine_config(EngineConfig::paper_defaults())
}

/// The program's serve defaults with the serve-layer per-IP limit raised,
/// as `loadgen --matrix` does.
fn serve_config() -> ServeConfig {
    ServeConfig::new().rate_limit(usize::MAX / 2, 60_000)
}

/// The independently built reference: the same seed and corpus scale
/// behind a `SimNet` + `SearchService`, DNS pinned to datacenter 0.
struct Reference {
    geo: UsGeography,
    corpus: Arc<WebCorpus>,
    engine: Arc<SearchEngine>,
    net: Arc<SimNet>,
}

fn build_reference(seed: u64, scale: u32, tracer: &Tracer) -> Result<Reference, String> {
    let world_seed = Seed::new(seed);
    let geo = tracer.call("geo.generate", 0, || UsGeography::generate(world_seed));
    let corpus = Arc::new(tracer.call("corpus.generate", 0, || {
        WebCorpus::generate_scaled(&geo, world_seed, scale)
    }));
    let net = Arc::new(SimNet::builder(world_seed.derive("geobench-reference-net")).build());
    let engine = Arc::new(
        SearchEngine::builder(Arc::clone(&corpus), &geo, world_seed)
            .config(engine_config())
            .obs(Arc::clone(net.obs()))
            .build()
            .map_err(|e| e.to_string())?,
    );
    let addrs = SearchService::install(&net, Arc::clone(&engine));
    net.dns().pin(SEARCH_HOST, addrs[0]);
    Ok(Reference {
        geo,
        corpus,
        engine,
        net,
    })
}

/// The workload's requests: every (query, vantage point) pair of the paper
/// set, shuffled by the seed, encoded once.
fn workload_requests(r: &Reference, seed: u64) -> Vec<Request> {
    let world_seed = Seed::new(seed);
    let vantage = VantagePoints::paper_defaults(&r.geo, world_seed.derive("vantage"));
    let mut out = Vec::new();
    for q in r.corpus.queries.all() {
        for gran in Granularity::ALL {
            for loc in vantage.at(gran) {
                out.push(search_request(&q.term, loc.coord));
            }
        }
    }
    world_seed.derive("geobench-order").rng().shuffle(&mut out);
    out
}

/// World build plus server start: one set-up sample.
fn start_server(seed: u64) -> Result<(SocketServer, ServedWorld), String> {
    let world =
        ServedWorld::build_scaled(seed, engine_config(), SCALE).map_err(|e| e.to_string())?;
    let server = SocketServer::start("127.0.0.1:0", &world, serve_config())
        .map_err(|e| format!("server start failed: {e}"))?;
    Ok((server, world))
}

/// The reference's answers to the first `SAMPLE` requests, sent in order
/// from 127.0.0.1 (a fresh server must answer them byte for byte alike).
fn expected_sample(reference: &Reference, requests: &[Request]) -> Result<Vec<Vec<u8>>, String> {
    requests[..SAMPLE]
        .iter()
        .map(|req| {
            let (resp, _) = reference
                .net
                .request(Ipv4Addr::LOCALHOST, req)
                .map_err(|e| format!("reference request failed: {e:?}"))?;
            encode_response(&resp).map_err(|e| e.to_string())
        })
        .collect()
}

/// Send the first `SAMPLE` requests in order on one connection to a fresh
/// server and compare the answers with the reference's.
fn check_sample(front: SocketAddr, wires: &[Vec<u8>], expected: &[Vec<u8>]) -> Result<(), String> {
    let mut stream = connect(front).map_err(|e| format!("connect failed: {e}"))?;
    let mut buf = Vec::new();
    let mut served = Vec::with_capacity(SAMPLE);
    for wire in &wires[..SAMPLE] {
        let (_, raw) = exchange(&mut stream, wire, &mut buf)
            .map_err(|e| format!("sample request failed: {e}"))?;
        served.push(raw);
    }
    oracle::compare_sample(expected, &served)
}

/// Send one request on an open connection and read one response; returns
/// it with its exact bytes.
fn exchange(
    stream: &mut TcpStream,
    wire: &[u8],
    buf: &mut Vec<u8>,
) -> std::io::Result<(Response, Vec<u8>)> {
    stream.write_all(wire)?;
    let limits = WireLimits::new().max_body_bytes(8 * 1024 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match parse_response(buf, &limits) {
            Ok(Some((resp, used))) => {
                let raw = buf[..used].to_vec();
                buf.drain(..used);
                return Ok((resp, raw));
            }
            Ok(None) => {}
            Err(e) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    e.to_string(),
                ))
            }
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(IO_TIMEOUT))?;
    s.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(s)
}

/// One request on a fresh connection.
fn one_shot(addr: SocketAddr, req: &Request) -> Result<Response, String> {
    let wire = encode_request(req).map_err(|e| e.to_string())?;
    let mut stream = connect(addr).map_err(|e| e.to_string())?;
    exchange(&mut stream, &wire, &mut Vec::new())
        .map(|(resp, _)| resp)
        .map_err(|e| e.to_string())
}

/// A process's `/metrics.json`.
fn fetch_metrics(addr: SocketAddr) -> Result<MetricsSnapshot, String> {
    let resp = one_shot(addr, &Request::get("localhost", "/metrics.json"))?;
    MetricsSnapshot::from_json(&resp.body_text())
}

fn counter(s: &MetricsSnapshot, name: &str) -> f64 {
    s.counters.get(name).copied().unwrap_or(0) as f64
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    /// Transport errors and non-200 answers.
    failed: u64,
    /// Latency of each completed request, milliseconds.
    latencies_ms: Vec<f64>,
    /// File holding every 200 body, each prefixed by its length as a
    /// little-endian u32; checked after the load. Spilling to a file keeps
    /// the bodies out of the process's resident memory.
    spill: PathBuf,
    spill_error: Option<String>,
    spans: Vec<Span>,
}

/// Spill files get distinct names (with the process id, so that runs in
/// one checkout never share one).
static SPILLS: AtomicUsize = AtomicUsize::new(0);

/// Closed loop: `clients` threads, each on one keep-alive connection, each
/// sending its next request only after the previous response, until
/// `run_for` has passed. Returns the logs and the wall time from start until
/// the last client finished.
fn load(
    addr: SocketAddr,
    wires: &[Vec<u8>],
    cursor: &AtomicUsize,
    clients: usize,
    run_for: Duration,
    tracer: Option<(&Tracer, u64)>,
) -> (Vec<ClientLog>, f64) {
    let started = Instant::now();
    let deadline = started + run_for;
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let spill = PathBuf::from(format!(
                    "{OUT_DIR}/bodies-{}-{}.bin",
                    std::process::id(),
                    SPILLS.fetch_add(1, Ordering::Relaxed)
                ));
                scope.spawn(move || {
                    client(addr, wires, cursor, deadline, tracer, c as u64 + 1, spill)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (logs, secs(started))
}

fn client(
    addr: SocketAddr,
    wires: &[Vec<u8>],
    cursor: &AtomicUsize,
    deadline: Instant,
    tracer: Option<(&Tracer, u64)>,
    tid: u64,
    spill: PathBuf,
) -> ClientLog {
    let mut log = ClientLog {
        spill,
        ..ClientLog::default()
    };
    let mut out = match File::create(&log.spill) {
        Ok(f) => BufWriter::with_capacity(1 << 20, f),
        Err(e) => {
            log.spill_error = Some(format!("cannot create {}: {e}", log.spill.display()));
            return log;
        }
    };
    let mut conn: Option<TcpStream> = None;
    let mut buf = Vec::with_capacity(64 * 1024);
    while Instant::now() < deadline {
        let first = cursor.fetch_add(CHUNK, Ordering::Relaxed);
        for k in 0..CHUNK {
            let wire = &wires[(first + k) % wires.len()];
            log.attempted += 1;
            let t = Instant::now();
            let outcome = (|| {
                if conn.is_none() {
                    conn = Some(connect(addr)?);
                }
                exchange(conn.as_mut().expect("just connected"), wire, &mut buf)
            })();
            let done = Instant::now();
            match outcome {
                Ok((resp, _)) => {
                    log.latencies_ms.push((done - t).as_secs_f64() * 1e3);
                    if resp.status == Status::Ok {
                        let spilled = out
                            .write_all(&(resp.body.len() as u32).to_le_bytes())
                            .and_then(|()| out.write_all(&resp.body));
                        if let Err(e) = spilled {
                            log.spill_error
                                .get_or_insert(format!("spill write failed: {e}"));
                        }
                    } else {
                        log.failed += 1;
                    }
                }
                Err(_) => {
                    log.failed += 1;
                    conn = None;
                    buf.clear();
                }
            }
            if let Some((tracer, parent)) = tracer {
                log.spans.push(Span {
                    id: tracer.next_id(),
                    parent,
                    name: "serve.request",
                    start: tracer.offset(t),
                    end: tracer.offset(done),
                    calls: 1,
                    tid,
                });
            }
        }
    }
    if let Err(e) = out.flush() {
        log.spill_error
            .get_or_insert(format!("spill flush failed: {e}"));
    }
    log
}

/// Check every spilled body (then remove the file); returns how many
/// bodies were checked and the failures.
fn check_spill(log: &ClientLog) -> (u64, Vec<String>) {
    let mut problems: Vec<String> = log.spill_error.iter().cloned().collect();
    let data = match std::fs::read(&log.spill) {
        Ok(d) => d,
        Err(e) => {
            problems.push(format!("cannot read {}: {e}", log.spill.display()));
            return (0, problems);
        }
    };
    let _ = std::fs::remove_file(&log.spill);
    let (mut at, mut checked) = (0usize, 0u64);
    while at + 4 <= data.len() {
        let len = u32::from_le_bytes(data[at..at + 4].try_into().expect("four bytes")) as usize;
        let Some(body) = data.get(at + 4..at + 4 + len) else {
            problems.push(format!("{} is truncated", log.spill.display()));
            break;
        };
        if let Err(e) = oracle::check_served_page(Status::Ok, body) {
            problems.push(format!("served page: {e}"));
        }
        checked += 1;
        at += 4 + len;
    }
    (checked, problems)
}

/// Check every spilled body of `logs`; returns the problems found.
fn check_pages(logs: &[ClientLog]) -> Vec<String> {
    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let answered = attempted - logs.iter().map(|l| l.failed).sum::<u64>();
    let mut problems = Vec::new();
    let mut checked = 0;
    for log in logs {
        let (n, p) = check_spill(log);
        checked += n;
        problems.extend(p);
    }
    if checked != answered {
        problems.push(format!("{checked} pages checked, {answered} answered 200"));
    }
    if problems.len() > 5 {
        let n = problems.len();
        problems.truncate(5);
        problems.push(format!("{n} served-page problems in all"));
    }
    problems
}

pub fn run(seed: u64, seconds: u64, tracer: &Tracer) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;

    // The reference, its answers to the sample, and (traced) the layer
    // probes on its world; then it is dropped so it does not count in the
    // served process's memory.
    let reference = build_reference(seed, SCALE, tracer)?;
    let requests = workload_requests(&reference, seed);
    let wires: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| encode_request(r).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let expected = expected_sample(&reference, &requests)?;
    let probe = tracer.is_on().then(|| {
        let vantage =
            VantagePoints::paper_defaults(&reference.geo, Seed::new(seed).derive("vantage"));
        let inputs = layers::probe_inputs(&reference.corpus, &vantage, seed);
        layers::probe_engine(
            tracer,
            0,
            &reference.engine,
            &reference.corpus,
            &reference.net,
            &inputs,
        )
    });
    drop(reference);

    // The load runs in rounds, each against a server started afresh (its
    // start-up is a set-up sample), and the figures pool every round, so
    // they average over several start-ups. A traced run alternates
    // untraced and traced rounds (one span per request): the gap between
    // their rates is the tracing overhead.
    let clients = nproc();
    let cursor = AtomicUsize::new(0);
    let per_round = Duration::from_secs(seconds.max(1)) / ROUNDS as u32;
    let mut setup_s = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut logs: Vec<ClientLog> = Vec::new();
    let mut counts = Counts::default();
    let load_span = tracer.open("serve.load", 0);
    let mut redos = 0;
    let mut gate = CalmGate::new(CALM_BUDGET);
    while rounds.len() < ROUNDS {
        let t = Instant::now();
        let (server, world) = start_server(seed)?;
        setup_s.push(secs(t));
        let front = server.local_addr();
        if let Err(e) = check_sample(front, &wires, &expected) {
            problems.push(format!("round {}: {e}", rounds.len()));
        }

        gate.wait();
        let before = [fetch_metrics(front)?];
        let traced = tracer.is_on() && rounds.len() % 2 == 1;
        let ticks = CpuTicks::now();
        let (round_logs, elapsed) = load(
            front,
            &wires,
            &cursor,
            clients,
            per_round,
            traced.then_some((tracer, load_span.id())),
        );
        let steal = steal_since(ticks);
        counts.add(&before, &[fetch_metrics(front)?]);
        server.shutdown();
        drop(world);

        let round = Round {
            completed: round_logs
                .iter()
                .map(|l| l.attempted - l.failed)
                .sum::<u64>() as f64,
            elapsed,
            latencies_ms: round_logs
                .iter()
                .flat_map(|l| l.latencies_ms.iter().copied())
                .collect(),
            traced,
        };
        // A round the host starved is checked and counted but measured
        // again (at most `REDOS` times).
        let redo = steal > CONTENDED && redos < REDOS;
        eprintln!(
            "serve round: {:.0}/s, host steal {:.0}%{}",
            round.completed / round.elapsed,
            steal * 100.0,
            if redo { ": measured again" } else { "" }
        );
        if redo {
            redos += 1;
        } else {
            rounds.push(round);
        }
        logs.extend(round_logs);
    }
    tracer.close(load_span, 1, 0);
    let peak = peak_rss_mb().unwrap_or(0.0);

    // Checks, outside the timed load: every 200 must strict-parse as a
    // SERP with at least one result, and the server must have counted
    // every request the clients sent.
    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    problems.extend(check_pages(&logs));
    if failed == 0 && counts.requests != attempted as f64 {
        problems.push(format!(
            "the server counted {} requests, the clients sent {attempted}",
            counts.requests
        ));
    }
    eprintln!(
        "serve: {attempted} requests ({failed} failed) from {clients} clients over {} rounds, {} connections",
        rounds.len() + redos,
        counts.connections,
    );

    let metrics = if tracer.is_on() {
        tracer.extend(
            logs.iter_mut()
                .flat_map(|l| std::mem::take(&mut l.spans))
                .collect(),
        );
        let probe = probe.expect("traced runs probe the reference");
        problems.extend(probe.problems.iter().cloned());
        let overhead = rate(&rounds, |r| !r.traced) / rate(&rounds, |r| r.traced) - 1.0;
        let mut values = vec![
            ("serve.requests", counts.requests),
            ("serve.connections", counts.connections),
            ("trace.overhead_pct", overhead * 100.0),
            ("engine.postings_bytes", probe.index.postings_bytes() as f64),
        ];
        // Comparison metrics between the probe pages of each query (one
        // vantage point per granularity).
        let mut pairs = Vec::new();
        for group in probe.pages.chunks(Granularity::ALL.len()) {
            for i in 0..group.len() {
                for j in (i + 1)..group.len() {
                    let a: Vec<&str> = group[i].iter().map(String::as_str).collect();
                    let b: Vec<&str> = group[j].iter().map(String::as_str).collect();
                    pairs.push((a, b));
                }
            }
        }
        problems.extend(layers::probe_metrics(tracer, 0, &pairs));
        values.extend(probe_cluster(tracer, seed, &wires, &mut problems)?);
        layers::per_layer_metrics(tracer, &values)
    } else {
        // Pooled over the rounds: total completions over total load time,
        // and percentiles of every request's latency.
        let mut latencies: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect();
        latencies.sort_by(f64::total_cmp);
        vec![
            Metric {
                name: "setup_s",
                value: median(&setup_s).unwrap_or(0.0),
                unit: "s",
            },
            Metric {
                name: "throughput_per_s",
                value: rate(&rounds, |_| true),
                unit: "1/s",
            },
            Metric {
                name: "latency_p50_ms",
                value: percentile(&latencies, 50.0).unwrap_or(0.0),
                unit: "ms",
            },
            Metric {
                name: "latency_p99_ms",
                value: percentile(&latencies, 99.0).unwrap_or(0.0),
                unit: "ms",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak,
                unit: "MB",
            },
        ]
    };
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
    })
}

/// The router and shard layers, for the traced run: a 2 shards × 2
/// replicas `ShardedCluster` at corpus scale 1, where the router's scatter
/// (4 RPCs per request, each on a fresh connection) is most of the work.
/// It must answer the sample byte for byte like a reference of that scale
/// (so scatter-gather is exact); a short closed loop of the workload's
/// requests yields the router's and every replica's counters; then the
/// remote retriever and single shard RPCs are timed, and remote retrieval
/// must equal a whole-corpus index's.
fn probe_cluster(
    tracer: &Tracer,
    seed: u64,
    wires: &[Vec<u8>],
    problems: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let reference = build_reference(seed, CLUSTER_SCALE, &Tracer::new(false))?;
    let requests = workload_requests(&reference, seed);
    let expected = expected_sample(&reference, &requests)?;
    let vantage = VantagePoints::paper_defaults(&reference.geo, Seed::new(seed).derive("vantage"));
    let inputs = layers::probe_inputs(&reference.corpus, &vantage, seed);
    let config = reference.engine.config().clone();
    let index = SearchIndex::build(&reference.corpus, config.index_backend);
    drop(reference);

    let cluster = ShardedCluster::start(
        "127.0.0.1:0",
        seed,
        EngineConfig::paper_defaults(),
        ClusterConfig::new(2, 2)
            .serve(serve_config())
            .corpus_scale(CLUSTER_SCALE),
    )
    .map_err(|e| format!("cluster start failed: {e}"))?;
    let router = cluster.router_addr();
    if let Err(e) = check_sample(router, wires, &expected) {
        problems.push(format!("2x2 cluster: {e}"));
    }
    let processes: Vec<SocketAddr> = std::iter::once(router)
        .chain(cluster.shard_addrs().iter().flatten().copied())
        .collect();
    let before = processes
        .iter()
        .map(|a| fetch_metrics(*a))
        .collect::<Result<Vec<_>, _>>()?;
    let (logs, _) = load(
        router,
        wires,
        &AtomicUsize::new(0),
        nproc(),
        CLUSTER_LOAD,
        None,
    );
    let after = processes
        .iter()
        .map(|a| fetch_metrics(*a))
        .collect::<Result<Vec<_>, _>>()?;
    let mut counts = Counts::default();
    counts.add(&before, &after);
    if logs.iter().any(|l| l.failed > 0) {
        problems.push("2x2 cluster: requests failed".to_string());
    }
    problems.extend(check_pages(&logs));
    problems.extend(probe_router(tracer, &cluster, &index, &config, &inputs));
    cluster.shutdown();
    Ok(vec![
        (
            "shard.connections_per_request",
            counts.shard_connections / counts.requests.max(1.0),
        ),
        ("router.hedge_fired", counts.hedge_fired),
        ("router.retries", counts.retries),
        ("router.shard_errors", counts.shard_errors),
    ])
}

/// One measured load round: requests completed (200 answers), its wall
/// time and every completed request's latency.
struct Round {
    completed: f64,
    elapsed: f64,
    latencies_ms: Vec<f64>,
    traced: bool,
}

/// Completed requests per second over the rounds `pick` selects.
fn rate(rounds: &[Round], pick: impl Fn(&Round) -> bool) -> f64 {
    let (n, s) = rounds
        .iter()
        .filter(|r| pick(r))
        .fold((0.0, 0.0), |(n, s), r| (n + r.completed, s + r.elapsed));
    n / s
}

/// Counters summed over rounds from every process's `/metrics.json`: the
/// delta across a round's load, less the one request (and connection) the
/// benchmark's own metrics read adds to each process.
#[derive(Default)]
struct Counts {
    requests: f64,
    connections: f64,
    shard_connections: f64,
    hedge_fired: f64,
    retries: f64,
    shard_errors: f64,
}

impl Counts {
    fn add(&mut self, before: &[MetricsSnapshot], after: &[MetricsSnapshot]) {
        let delta = |i: usize, name: &str| counter(&after[i], name) - counter(&before[i], name);
        self.requests += delta(0, "serve.requests") - 1.0;
        self.connections += delta(0, "serve.connections") - 1.0;
        for i in 1..after.len() {
            self.shard_connections += delta(i, "serve.connections") - 1.0;
        }
        self.hedge_fired += delta(0, "router.hedge_fired");
        self.retries += delta(0, "router.retries");
        self.shard_errors += delta(0, "router.shard_errors");
    }
}

/// The router's retriever and one shard RPC, timed against the running
/// shards. Remote retrieval must equal the whole-corpus index's.
fn probe_router(
    tracer: &Tracer,
    cluster: &ShardedCluster,
    index: &geoserp_core::engine::SearchIndex,
    config: &EngineConfig,
    inputs: &[ProbeInput],
) -> Vec<String> {
    let mut problems = Vec::new();
    let min = config.organic_count * 3;
    let partial = config.partial_match_score;
    let retriever = RemoteRetriever::new(
        cluster.shard_addrs().to_vec(),
        200,
        5_000,
        Arc::new(ObsHub::new()),
    );
    let mut queries: Vec<&str> = inputs.iter().map(|i| i.query.as_str()).collect();
    queries.dedup();
    for q in &queries {
        let remote = tracer.call("router.retrieve", 0, || retriever.retrieve(q, min, partial));
        if remote != index.retrieve(q, min, partial) {
            problems.push(format!(
                "{q:?}: routed retrieval differs from the reference index"
            ));
        }
        let suggestion = tracer.call("router.suggest", 0, || retriever.suggest(q));
        if suggestion != index.suggest(q) {
            problems.push(format!(
                "{q:?}: routed suggestion differs from the reference index"
            ));
        }
    }

    let addr = cluster.shard_addrs()[0][0];
    let mut kept: Option<TcpStream> = None;
    let mut buf = Vec::new();
    for q in &queries {
        let req = geoserp_core::serve::shard::retrieve_request(&ShardRetrieveRequest {
            query: q.to_string(),
            max_partials: max_partials(min) as u32,
        });
        let Ok(wire) = encode_request(&req) else {
            problems.push(format!("{q:?}: shard request does not encode"));
            continue;
        };
        let fresh = tracer.call("shard.rpc", 0, || {
            let mut stream = connect(addr)?;
            exchange(&mut stream, &wire, &mut Vec::new())
        });
        let reused = tracer.call("shard.rpc_keepalive", 0, || {
            if kept.is_none() {
                kept = Some(connect(addr)?);
            }
            exchange(kept.as_mut().expect("just connected"), &wire, &mut buf)
        });
        match (fresh, reused) {
            (Ok((a, _)), Ok((b, _))) if a.status == Status::Ok && a == b => {}
            _ => problems.push(format!(
                "{q:?}: shard RPC failed or answers differ by connection"
            )),
        }
    }
    problems
}

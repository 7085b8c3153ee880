//! The metric tables, and the per-layer probes every workload runs in its
//! traced run: timed calls into the engine, net, serp and metrics crates'
//! public functions on the workload's own world and inputs.

use crate::trace::Tracer;
use crate::util::Metric;
use geoserp_core::corpus::WebCorpus;
use geoserp_core::engine::shard::{max_partials, merge_retrieve};
use geoserp_core::engine::{
    SearchContext, SearchEngine, SearchIndex, GEOLOCATION_HEADER, SEARCH_HOST,
};
use geoserp_core::geo::{Coord, Granularity, Seed, VantagePoints};
use geoserp_core::net::{
    encode_request, encode_response, parse_request, parse_response, Request, ShardRetrieveResponse,
    SimNet, Status, WireLimits,
};
use geoserp_core::serve::ShardPlan;
use std::net::Ipv4Addr;

/// The end-to-end metrics every untraced run reports: name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// How a per-layer metric is derived.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Mean time per call of the spans with this name, scaled by the
    /// factor (1e3 for ms, 1e6 for µs). The call count is reported under
    /// the second name.
    PerCall(&'static str, f64, &'static str),
    /// A value the workload computes itself (counts, sizes, rates).
    Value,
}

/// Every per-layer metric a traced run reports: name, unit, derivation.
pub const PER_LAYER: &[(&str, &str, Kind)] = &[
    (
        "geo.generate_ms",
        "ms",
        Kind::PerCall("geo.generate", 1e3, "geo.generate_calls"),
    ),
    (
        "corpus.generate_ms",
        "ms",
        Kind::PerCall("corpus.generate", 1e3, "corpus.generate_calls"),
    ),
    (
        "engine.index_build_ms",
        "ms",
        Kind::PerCall("engine.index_build", 1e3, "engine.index_build_calls"),
    ),
    ("engine.postings_bytes", "bytes", Kind::Value),
    (
        "engine.search_us",
        "us",
        Kind::PerCall("engine.search", 1e6, "engine.search_calls"),
    ),
    (
        "engine.retrieve_us",
        "us",
        Kind::PerCall("engine.retrieve", 1e6, "engine.retrieve_calls"),
    ),
    (
        "engine.suggest_us",
        "us",
        Kind::PerCall("engine.suggest", 1e6, "engine.suggest_calls"),
    ),
    (
        "engine.shard_retrieve_us",
        "us",
        Kind::PerCall("engine.shard_retrieve", 1e6, "engine.shard_retrieve_calls"),
    ),
    (
        "engine.merge_us",
        "us",
        Kind::PerCall("engine.merge", 1e6, "engine.merge_calls"),
    ),
    (
        "net.sim_request_us",
        "us",
        Kind::PerCall("net.sim_request", 1e6, "net.sim_request_calls"),
    ),
    (
        "net.wire_encode_us",
        "us",
        Kind::PerCall("net.wire_encode", 1e6, "net.wire_encode_calls"),
    ),
    (
        "net.wire_parse_request_us",
        "us",
        Kind::PerCall(
            "net.wire_parse_request",
            1e6,
            "net.wire_parse_request_calls",
        ),
    ),
    (
        "net.wire_parse_response_us",
        "us",
        Kind::PerCall(
            "net.wire_parse_response",
            1e6,
            "net.wire_parse_response_calls",
        ),
    ),
    (
        "serp.render_us",
        "us",
        Kind::PerCall("serp.render", 1e6, "serp.render_calls"),
    ),
    (
        "serp.parse_us",
        "us",
        Kind::PerCall("serp.parse", 1e6, "serp.parse_calls"),
    ),
    ("crawler.serps_per_s", "1/s", Kind::Value),
    ("crawler.rounds", "count", Kind::Value),
    ("crawler.attempts", "count", Kind::Value),
    ("crawler.retries", "count", Kind::Value),
    ("crawler.failed_jobs", "count", Kind::Value),
    (
        "crawler.round_ms",
        "ms",
        Kind::PerCall("crawler.round", 1e3, "crawler.round_calls"),
    ),
    (
        "crawler.dataset_to_json_ms",
        "ms",
        Kind::PerCall(
            "crawler.dataset_to_json",
            1e3,
            "crawler.dataset_to_json_calls",
        ),
    ),
    (
        "crawler.dataset_from_json_ms",
        "ms",
        Kind::PerCall(
            "crawler.dataset_from_json",
            1e3,
            "crawler.dataset_from_json_calls",
        ),
    ),
    ("crawler.dataset_json_bytes", "bytes", Kind::Value),
    (
        "metrics.jaccard_us",
        "us",
        Kind::PerCall("metrics.jaccard", 1e6, "metrics.jaccard_calls"),
    ),
    (
        "metrics.edit_distance_us",
        "us",
        Kind::PerCall("metrics.edit_distance", 1e6, "metrics.edit_distance_calls"),
    ),
    (
        "analysis.report_ms",
        "ms",
        Kind::PerCall("analysis.report", 1e3, "analysis.report_calls"),
    ),
    (
        "analysis.pair_cache_ms",
        "ms",
        Kind::PerCall("analysis.pair_cache", 1e3, "analysis.pair_cache_calls"),
    ),
    (
        "analysis.fig2_noise_ms",
        "ms",
        Kind::PerCall("analysis.fig2_noise", 1e3, "analysis.fig2_noise_calls"),
    ),
    (
        "analysis.fig3_noise_per_term_ms",
        "ms",
        Kind::PerCall(
            "analysis.fig3_noise_per_term",
            1e3,
            "analysis.fig3_noise_per_term_calls",
        ),
    ),
    (
        "analysis.fig4_noise_by_type_ms",
        "ms",
        Kind::PerCall(
            "analysis.fig4_noise_by_type",
            1e3,
            "analysis.fig4_noise_by_type_calls",
        ),
    ),
    (
        "analysis.fig5_personalization_ms",
        "ms",
        Kind::PerCall(
            "analysis.fig5_personalization",
            1e3,
            "analysis.fig5_personalization_calls",
        ),
    ),
    (
        "analysis.fig6_personalization_per_term_ms",
        "ms",
        Kind::PerCall(
            "analysis.fig6_personalization_per_term",
            1e3,
            "analysis.fig6_personalization_per_term_calls",
        ),
    ),
    (
        "analysis.fig7_personalization_by_type_ms",
        "ms",
        Kind::PerCall(
            "analysis.fig7_personalization_by_type",
            1e3,
            "analysis.fig7_personalization_by_type_calls",
        ),
    ),
    (
        "analysis.component_attribution_ms",
        "ms",
        Kind::PerCall(
            "analysis.component_attribution",
            1e3,
            "analysis.component_attribution_calls",
        ),
    ),
    (
        "analysis.fig8_consistency_ms",
        "ms",
        Kind::PerCall(
            "analysis.fig8_consistency",
            1e3,
            "analysis.fig8_consistency_calls",
        ),
    ),
    (
        "analysis.significance_ms",
        "ms",
        Kind::PerCall("analysis.significance", 1e3, "analysis.significance_calls"),
    ),
    (
        "analysis.fig8_clusters_ms",
        "ms",
        Kind::PerCall(
            "analysis.fig8_clusters",
            1e3,
            "analysis.fig8_clusters_calls",
        ),
    ),
    (
        "analysis.demographics_ms",
        "ms",
        Kind::PerCall("analysis.demographics", 1e3, "analysis.demographics_calls"),
    ),
    (
        "router.retrieve_us",
        "us",
        Kind::PerCall("router.retrieve", 1e6, "router.retrieve_calls"),
    ),
    (
        "router.suggest_us",
        "us",
        Kind::PerCall("router.suggest", 1e6, "router.suggest_calls"),
    ),
    (
        "shard.rpc_us",
        "us",
        Kind::PerCall("shard.rpc", 1e6, "shard.rpc_calls"),
    ),
    (
        "shard.rpc_keepalive_us",
        "us",
        Kind::PerCall("shard.rpc_keepalive", 1e6, "shard.rpc_keepalive_calls"),
    ),
    ("serve.requests", "count", Kind::Value),
    ("serve.connections", "count", Kind::Value),
    ("shard.connections_per_request", "count", Kind::Value),
    ("router.hedge_fired", "count", Kind::Value),
    ("router.retries", "count", Kind::Value),
    ("router.shard_errors", "count", Kind::Value),
    ("trace.overhead_pct", "%", Kind::Value),
];

/// Names of every per-layer metric in output order, call counts included.
pub fn per_layer_names() -> Vec<(&'static str, &'static str)> {
    let mut out = Vec::new();
    for &(name, unit, kind) in PER_LAYER {
        out.push((name, unit));
        if let Kind::PerCall(_, _, calls) = kind {
            out.push((calls, "count"));
        }
    }
    out
}

/// Assemble the per-layer metrics: span-derived ones from the tracer, the
/// rest from `values` (absent values are 0: the workload does not reach
/// that layer).
pub fn per_layer_metrics(tracer: &Tracer, values: &[(&'static str, f64)]) -> Vec<Metric> {
    let mut out = Vec::new();
    for &(name, unit, kind) in PER_LAYER {
        match kind {
            Kind::PerCall(span, scale, calls_name) => {
                let (per_call, calls) = tracer.per_call(span, scale);
                out.push(Metric {
                    name,
                    value: per_call,
                    unit,
                });
                out.push(Metric {
                    name: calls_name,
                    value: calls as f64,
                    unit: "count",
                });
            }
            Kind::Value => {
                let value = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v);
                out.push(Metric { name, value, unit });
            }
        }
    }
    out
}

/// One probe input: a query issued from a vantage point's GPS fix.
#[derive(Debug, Clone)]
pub struct ProbeInput {
    pub query: String,
    pub gps: Coord,
}

/// The search request a browser at `gps` sends for `query`.
pub fn search_request(query: &str, gps: Coord) -> Request {
    Request::get(SEARCH_HOST, "/search")
        .with_query("q", query)
        .with_header(GEOLOCATION_HEADER, gps.to_gps_string())
        .with_header("User-Agent", "geobench/0.1")
}

/// Probe inputs: each of the world's queries from one seeded vantage point
/// of each granularity, in that order.
pub fn probe_inputs(corpus: &WebCorpus, vantage: &VantagePoints, seed: u64) -> Vec<ProbeInput> {
    let mut rng = Seed::new(seed).derive("geobench-probes").rng();
    let mut out = Vec::new();
    for q in corpus.queries.all() {
        for gran in Granularity::ALL {
            out.push(ProbeInput {
                query: q.term.clone(),
                gps: rng.pick(vantage.at(gran)).coord,
            });
        }
    }
    out
}

/// What [`probe_engine`] hands back.
pub struct EngineProbe {
    /// The whole-corpus index the probes built.
    pub index: SearchIndex,
    /// Each probe page's URL list, in input order.
    pub pages: Vec<Vec<String>>,
    /// Check failures.
    pub problems: Vec<String>,
}

/// Time the engine, net and serp layers on `inputs` against one world:
/// `engine` and `net` must serve the same corpus. Each input is searched,
/// rendered, parsed back, retrieved whole and through two shard slices,
/// and sent through the simulated network and the wire codec. The probes
/// double as checks: parse(render(page)) must give the page back, and the
/// shard merge must equal whole-corpus retrieval.
pub fn probe_engine(
    tracer: &Tracer,
    parent: u64,
    engine: &SearchEngine,
    corpus: &WebCorpus,
    net: &SimNet,
    inputs: &[ProbeInput],
) -> EngineProbe {
    let config = engine.config();
    let backend = config.index_backend;
    let min = config.organic_count * 3;
    let partial = config.partial_match_score;
    let index = tracer.call("engine.index_build", parent, || {
        SearchIndex::build(corpus, backend)
    });
    let plan = ShardPlan::contiguous(corpus.pages.len() as u32, 2);
    let shards: Vec<SearchIndex> = plan
        .ranges
        .iter()
        .map(|r| SearchIndex::build_range(corpus, r.clone(), backend))
        .collect();
    let limits = WireLimits::new().max_body_bytes(8 * 1024 * 1024);
    let mut problems = Vec::new();
    let mut pages = Vec::with_capacity(inputs.len());
    for (i, input) in inputs.iter().enumerate() {
        let q = input.query.as_str();
        let src = Ipv4Addr::new(10, 200, (i >> 8) as u8, i as u8);
        let ctx = SearchContext {
            query: q.to_string(),
            gps: Some(input.gps),
            src,
            datacenter: 0,
            seq: i as u64,
            at_ms: 0,
            session: None,
            page: 0,
        };
        let page = tracer.call("engine.search", parent, || engine.search(&ctx));
        pages.push(page.urls());
        let body = tracer.call("serp.render", parent, || page.render());
        match tracer.call("serp.parse", parent, || geoserp_core::serp::parse(&body)) {
            Ok(back) if back == page => {}
            Ok(_) => problems.push(format!("{q:?}: parse(render(page)) differs from the page")),
            Err(e) => problems.push(format!("{q:?}: rendered page does not parse: {e}")),
        }

        let whole = tracer.call("engine.retrieve", parent, || {
            index.retrieve(q, min, partial)
        });
        std::hint::black_box(tracer.call("engine.suggest", parent, || index.suggest(q)));
        let parts: Vec<ShardRetrieveResponse> = shards
            .iter()
            .map(|s| {
                let (fulls, partials) = tracer.call("engine.shard_retrieve", parent, || {
                    s.shard_retrieve(q, max_partials(min))
                });
                ShardRetrieveResponse {
                    fulls: fulls.iter().map(|p| p.0).collect(),
                    partials: partials.iter().map(|(p, n)| (p.0, *n as u32)).collect(),
                }
            })
            .collect();
        let merged = tracer.call("engine.merge", parent, || {
            merge_retrieve(q, min, partial, &parts)
        });
        if merged != whole {
            problems.push(format!(
                "{q:?}: merged shard retrieval differs from whole-corpus retrieval"
            ));
        }

        let req = search_request(q, input.gps);
        let wire = tracer.call("net.wire_encode", parent, || encode_request(&req));
        let Ok(wire) = wire else {
            problems.push(format!("{q:?}: request does not encode"));
            continue;
        };
        match tracer.call("net.wire_parse_request", parent, || {
            parse_request(&wire, &limits)
        }) {
            Ok(Some((back, used))) if back == req && used == wire.len() => {}
            _ => problems.push(format!("{q:?}: encoded request does not parse back")),
        }
        let resp = match tracer.call("net.sim_request", parent, || net.request(src, &req)) {
            Ok((resp, _)) if resp.status == Status::Ok => resp,
            Ok((resp, _)) => {
                problems.push(format!(
                    "{q:?}: simulated request answered {:?}",
                    resp.status
                ));
                continue;
            }
            Err(e) => {
                problems.push(format!("{q:?}: simulated request failed: {e:?}"));
                continue;
            }
        };
        let Ok(rwire) = tracer.call("net.wire_encode", parent, || encode_response(&resp)) else {
            problems.push(format!("{q:?}: response does not encode"));
            continue;
        };
        match tracer.call("net.wire_parse_response", parent, || {
            parse_response(&rwire, &limits)
        }) {
            Ok(Some((back, _))) if back == resp => {}
            _ => problems.push(format!("{q:?}: encoded response does not parse back")),
        }
    }
    EngineProbe {
        index,
        pages,
        problems,
    }
}

/// Time `geoserp-metrics`' Jaccard and edit distance over `pairs`, one
/// batch span each, and check them against the benchmark's own.
pub fn probe_metrics(
    tracer: &Tracer,
    parent: u64,
    pairs: &[(Vec<&str>, Vec<&str>)],
) -> Vec<String> {
    use geoserp_core::metrics::{edit_distance, jaccard};
    let n = pairs.len() as u64;
    let jac: Vec<f64> = tracer.batch("metrics.jaccard", parent, n, || {
        pairs.iter().map(|(a, b)| jaccard(a, b)).collect()
    });
    let edit: Vec<usize> = tracer.batch("metrics.edit_distance", parent, n, || {
        pairs.iter().map(|(a, b)| edit_distance(a, b)).collect()
    });
    let mut problems = Vec::new();
    for (i, (a, b)) in pairs.iter().enumerate() {
        if jac[i] != crate::oracle::jaccard(a, b) || edit[i] != crate::oracle::edit_distance(a, b) {
            problems.push(format!("metrics pair {i}: library and definition disagree"));
            break;
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = text.matches("\"name\":").count();
        let workloads = crate::WORKLOADS.len();
        assert_eq!(
            listed,
            workloads + END_TO_END.len() + per_layer_names().len(),
            "BENCHMARK.json must list every workload and metric once"
        );
        for (name, unit) in END_TO_END.iter().copied().chain(per_layer_names()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{w}\"")),
                "BENCHMARK.json lacks workload {w}"
            );
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        names.extend(per_layer_names().iter().map(|(n, _)| *n));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'),
                "{n}"
            );
        }
        assert!(per_layer_names().len() <= 128);
    }
}

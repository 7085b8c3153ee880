//! The `study` workload: the paper's measurement pipeline in one process.
//!
//! All 240 queries × all 59 vantage points × treatment and control, for
//! `DAYS` days per (batch, granularity) block instead of the paper's five,
//! with `geoserp run`'s defaults (worker-pool crawl, automatic analysis
//! workers, paper component set). One pipeline round builds the world,
//! crawls, saves the dataset as JSON, loads it back and renders the
//! 11-section report; rounds repeat until the run's time is spent.

use crate::layers;
use crate::oracle;
use crate::trace::Tracer;
use crate::util::{
    median, peak_rss_mb, percentile, secs, steal_since, CalmGate, CpuTicks, Metric, Outcome,
    CONTENDED,
};
use geoserp_core::analysis::{self as analysis, AnalysisOptions, ObsIndex};
use geoserp_core::corpus::{QueryCategory, WebCorpus};
use geoserp_core::crawler::{Crawler, Dataset, ExperimentPlan};
use geoserp_core::engine::{IndexBackend, SearchIndex};
use geoserp_core::geo::{Granularity, Seed, UsGeography};
use geoserp_core::report::full_report_with_options;
use geoserp_core::Study;
use std::cell::{Cell, RefCell};
use std::path::Path;
use std::time::{Duration, Instant};

/// Days per (batch, granularity) block: 240 × 59 × 2 × 2 = 56,640 SERPs.
pub const DAYS: u32 = 2;

/// Rounds measured again at most, per run, when the host starved them.
const REDOS: usize = 3;
/// Longest wait per run for a calm host before rounds.
const CALM_BUDGET: Duration = Duration::from_secs(40);

/// World builds per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 5;

/// Where a round saves its dataset (inside the checkout, removed after).
fn dataset_file() -> String {
    format!("geobench/out/study-dataset-{}.json", std::process::id())
}

/// What one pipeline round measured.
struct Round {
    crawl_s: f64,
    save_s: f64,
    load_s: f64,
    analysis_s: f64,
    round_ms: Vec<f64>,
    observations: usize,
    failed_jobs: u64,
    json_bytes: usize,
    /// Peak resident memory after the round's pipeline, before its checks.
    peak_mb: f64,
    /// Share of CPU time the host stole during the pipeline.
    steal: f64,
    /// The crawled dataset, kept for the traced run's probes.
    dataset: Option<Dataset>,
}

impl Round {
    /// Crawl, save, load and report: the pipeline the user waits for.
    fn pipeline_s(&self) -> f64 {
        self.crawl_s + self.save_s + self.load_s + self.analysis_s
    }
}

fn plan() -> ExperimentPlan {
    ExperimentPlan {
        days: DAYS,
        ..ExperimentPlan::paper_full()
    }
}

pub fn run(seed: u64, seconds: u64, tracer: &Tracer) -> Result<Outcome, String> {
    let study = Study::builder()
        .seed(seed)
        .plan(plan())
        .analysis_options(AnalysisOptions::default())
        .build()
        .map_err(|e| e.to_string())?;
    let file = dataset_file();
    std::fs::create_dir_all(Path::new(&file).parent().expect("file has a directory"))
        .map_err(|e| format!("cannot create the output directory: {e}"))?;

    // Set-up: the world a crawl needs (geography, corpus, engine and its
    // index, simulated network, vantage points, machine pool).
    let mut setup_s = Vec::new();
    let mut crawler = None;
    for _ in 0..SETUP_SAMPLES {
        drop(crawler.take());
        let t = Instant::now();
        crawler = Some(study.crawler());
        setup_s.push(secs(t));
    }
    let mut crawler = crawler.expect("at least one set-up");

    let mut problems = Vec::new();
    let mut rounds = Vec::new();
    let mut redone = Vec::new();
    let mut first_peak = 0.0;
    let mut overhead_pct = 0.0;
    if tracer.is_on() {
        // The traced round sits between two untraced crawls on fresh
        // worlds: its crawl time against their mean is the tracing overhead.
        let mut baseline = Vec::new();
        for traced in [false, true, false] {
            crawler = study.crawler();
            if traced {
                rounds.push(pipeline_round(
                    &study,
                    &crawler,
                    tracer,
                    &mut problems,
                    true,
                )?);
            } else {
                let t = Instant::now();
                drop(crawler.run(study.plan()));
                baseline.push(secs(t));
            }
        }
        let baseline_s = baseline.iter().sum::<f64>() / baseline.len() as f64;
        overhead_pct = (rounds[0].crawl_s / baseline_s - 1.0) * 100.0;
    } else {
        // Rounds until their pipeline time (checks excluded) reaches the
        // run's length. A round the host starved is checked and counted but
        // measured again (at most `REDOS` times).
        let mut redos = 0;
        let mut gate = CalmGate::new(CALM_BUDGET);
        loop {
            gate.wait();
            let mut round = pipeline_round(&study, &crawler, tracer, &mut problems, true)?;
            round.dataset = None;
            if rounds.is_empty() && redone.is_empty() {
                first_peak = round.peak_mb;
            }
            let redo = round.steal > CONTENDED && redos < REDOS;
            eprintln!(
                "study round: pipeline {:.2} s, host steal {:.0}%{}",
                round.pipeline_s(),
                round.steal * 100.0,
                if redo { ": measured again" } else { "" }
            );
            if redo {
                redos += 1;
                redone.push(round);
            } else {
                rounds.push(round);
            }
            if rounds.iter().map(Round::pipeline_s).sum::<f64>() >= seconds as f64 {
                break;
            }
            drop(crawler);
            let t = Instant::now();
            crawler = study.crawler();
            setup_s.push(secs(t));
        }
    }
    let _ = std::fs::remove_file(&file);

    let jobs =
        oracle::expected_observations(study.plan(), crawler.corpus(), crawler.vantage()) as u64;
    let attempted = jobs * (rounds.len() + redone.len()) as u64;
    let failed: u64 = rounds.iter().chain(&redone).map(|r| r.failed_jobs).sum();

    let metrics = if tracer.is_on() {
        let values = layer_probes(
            &study,
            &crawler,
            tracer,
            &rounds[0],
            overhead_pct,
            seed,
            &mut problems,
        );
        layers::per_layer_metrics(tracer, &values)
    } else {
        let serps: usize = rounds.iter().map(|r| r.observations).sum();
        let pipeline: f64 = rounds.iter().map(Round::pipeline_s).sum();
        let mut round_ms: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.round_ms.iter().copied())
            .collect();
        round_ms.sort_by(f64::total_cmp);
        eprintln!(
            "study: {} round(s); crawl {:.2} s, save {:.2} s, load {:.2} s, analysis {:.2} s (first round)",
            rounds.len(),
            rounds[0].crawl_s,
            rounds[0].save_s,
            rounds[0].load_s,
            rounds[0].analysis_s
        );
        vec![
            Metric {
                name: "setup_s",
                value: median(&setup_s).unwrap_or(0.0),
                unit: "s",
            },
            Metric {
                name: "throughput_per_s",
                value: serps as f64 / pipeline,
                unit: "1/s",
            },
            Metric {
                name: "latency_p50_ms",
                value: percentile(&round_ms, 50.0).unwrap_or(0.0),
                unit: "ms",
            },
            Metric {
                name: "latency_p99_ms",
                value: percentile(&round_ms, 99.0).unwrap_or(0.0),
                unit: "ms",
            },
            Metric {
                name: "peak_rss_mb",
                // The first round's, measured again or not: memory does not
                // depend on the host's steal, and later rounds start after
                // earlier rounds' checks.
                value: first_peak,
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

/// One pipeline round on a freshly built world, followed (outside every
/// timed section) by the checks when `check` is set.
fn pipeline_round(
    study: &Study,
    crawler: &Crawler,
    tracer: &Tracer,
    problems: &mut Vec<String>,
    check: bool,
) -> Result<Round, String> {
    let plan = study.plan();
    let ticks = CpuTicks::now();
    let crawl = tracer.open("crawler.crawl", 0);
    let crawl_span = crawl.id();
    let crawl_started = Instant::now();
    let last = Cell::new(crawl_started);
    let round_ms = RefCell::new(Vec::new());
    let dataset = crawler.run_with_progress(plan, |_| {
        let now = Instant::now();
        round_ms
            .borrow_mut()
            .push((now - last.get()).as_secs_f64() * 1e3);
        tracer.record("crawler.round", crawl_span, last.get(), now);
        last.set(now);
    });
    let crawl_s = tracer.close(crawl, 1, 0).as_secs_f64();

    // `geoserp run --save`: serialize and write.
    let t = Instant::now();
    let json = tracer.call("crawler.dataset_to_json", 0, || dataset.to_json());
    let file = dataset_file();
    std::fs::write(&file, &json).map_err(|e| format!("cannot save the dataset: {e}"))?;
    let save_s = secs(t);
    let json_len = json.len();
    drop(json);

    // `geoserp analyze`'s first half: read and parse.
    let t = Instant::now();
    let text =
        std::fs::read_to_string(&file).map_err(|e| format!("cannot read the dataset: {e}"))?;
    let loaded = tracer
        .call("crawler.dataset_from_json", 0, || Dataset::from_json(&text))
        .map_err(|e| format!("saved dataset does not load: {e:?}"))?;
    let load_s = secs(t);
    drop(text);

    let options = study.analysis_options();
    let t = Instant::now();
    let report = tracer.call("analysis.report", 0, || {
        full_report_with_options(&dataset, None, options)
    });
    let analysis_s = secs(t);

    // The pipeline's own peak memory, read before the checks add theirs.
    let peak_mb = peak_rss_mb().unwrap_or(0.0);
    let steal = steal_since(ticks);
    if check {
        check_study(study, crawler, &dataset, &loaded, &report, problems);
    }
    Ok(Round {
        crawl_s,
        save_s,
        load_s,
        analysis_s,
        round_ms: round_ms.into_inner(),
        observations: dataset.observations().len(),
        failed_jobs: dataset.meta.failed_jobs,
        json_bytes: json_len,
        peak_mb,
        steal,
        dataset: Some(dataset),
    })
}

/// The study checks: observation count, every pair's Jaccard and edit
/// distance, the Fig. 2 means, the paper's findings, and report equality
/// between the in-memory and the reloaded dataset.
fn check_study(
    study: &Study,
    crawler: &Crawler,
    dataset: &Dataset,
    loaded: &Dataset,
    report: &str,
    problems: &mut Vec<String>,
) {
    let expected = oracle::expected_observations(study.plan(), crawler.corpus(), crawler.vantage());
    if dataset.observations().len() != expected {
        problems.push(format!(
            "dataset holds {} observations, the plan needs {expected}",
            dataset.observations().len()
        ));
    }
    let idx = ObsIndex::with_options(dataset, study.analysis_options(), None);
    let pairs = oracle::check_pairs(dataset, &idx);
    eprintln!(
        "study checks: {} observations, {} noise pairs and {} treatment pairs recomputed",
        dataset.observations().len(),
        pairs.noise_pairs,
        pairs.treatment_pairs
    );
    problems.extend(pairs.problems.iter().cloned());
    problems.extend(oracle::check_fig2(
        &pairs.cells,
        &analysis::fig2_noise(&idx),
    ));
    problems.extend(oracle::check_findings(&pairs.cells));
    drop(idx);
    let reloaded = full_report_with_options(loaded, None, study.analysis_options());
    if reloaded != report {
        problems.push(
            "the report from the reloaded dataset differs from the in-memory one".to_string(),
        );
    }
}

/// The traced run's per-layer probes beyond the pipeline's own spans: the
/// world's parts built one call at a time, each report section through its
/// public function, the comparison metrics, and the engine/net/serp probes.
fn layer_probes(
    study: &Study,
    crawler: &Crawler,
    tracer: &Tracer,
    round: &Round,
    overhead_pct: f64,
    seed: u64,
    problems: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    // The world's parts, with the crawler's own seeds.
    let world_seed = Seed::new(seed);
    let geo = tracer.call("geo.generate", 0, || UsGeography::generate(world_seed));
    let corpus = tracer.call("corpus.generate", 0, || {
        WebCorpus::generate(&geo, world_seed.derive("corpus"))
    });
    drop(tracer.call("engine.index_build", 0, || {
        SearchIndex::build(&corpus, IndexBackend::default())
    }));
    drop((geo, corpus));

    let dataset = round
        .dataset
        .as_ref()
        .expect("the traced round keeps its dataset");
    let text = dataset.to_json();
    for _ in 0..2 {
        drop(tracer.call("crawler.dataset_to_json", 0, || dataset.to_json()));
        drop(tracer.call("crawler.dataset_from_json", 0, || Dataset::from_json(&text)));
    }
    drop(text);

    let options = study.analysis_options();
    let idx = tracer.call("analysis.pair_cache", 0, || {
        ObsIndex::with_options(dataset, options, None)
    });
    let idx = &idx;
    use QueryCategory::Local;
    std::hint::black_box(tracer.call("analysis.fig2_noise", 0, || analysis::fig2_noise(idx)));
    std::hint::black_box(tracer.call("analysis.fig3_noise_per_term", 0, || {
        analysis::fig3_noise_per_term(idx, Local)
    }));
    std::hint::black_box(tracer.call("analysis.fig4_noise_by_type", 0, || {
        analysis::fig4_noise_by_type(idx, Local, Granularity::County)
    }));
    std::hint::black_box(tracer.call("analysis.fig5_personalization", 0, || {
        analysis::fig5_personalization(idx)
    }));
    std::hint::black_box(
        tracer.call("analysis.fig6_personalization_per_term", 0, || {
            analysis::fig6_personalization_per_term(idx, Local)
        }),
    );
    std::hint::black_box(tracer.call("analysis.fig7_personalization_by_type", 0, || {
        analysis::fig7_personalization_by_type(idx)
    }));
    std::hint::black_box(tracer.call("analysis.component_attribution", 0, || {
        analysis::component_attribution(idx)
    }));
    let panels = tracer.call("analysis.fig8_consistency", 0, || {
        analysis::fig8_consistency(idx, Local)
    });
    std::hint::black_box(tracer.call("analysis.significance", 0, || {
        analysis::personalization_significance(
            idx,
            1_000,
            Seed::new(dataset.meta.seed).derive("report-significance"),
        )
    }));
    if let Some(county) = panels.iter().find(|p| p.granularity == Granularity::County) {
        std::hint::black_box(tracer.call("analysis.fig8_clusters", 0, || {
            analysis::fig8_clusters(county, 0.75)
        }));
    }
    std::hint::black_box(tracer.call("analysis.demographics", 0, || {
        analysis::demographic_correlations(idx, Local, Granularity::County)
    }));

    // Comparison metrics over every noise pair of the dataset.
    let mut pairs: Vec<(Vec<&str>, Vec<&str>)> = Vec::new();
    for gran in idx.granularities() {
        for category in idx.categories() {
            idx.for_each_noise_pair(gran, category, |t, c| {
                pairs.push((idx.urls(t), idx.urls(c)))
            });
        }
    }
    problems.extend(layers::probe_metrics(tracer, 0, &pairs));
    drop(pairs);

    // Engine, serp and net probes: every query from one seeded vantage
    // point per granularity, against the crawler's own engine and network.
    let inputs = layers::probe_inputs(crawler.corpus(), crawler.vantage(), seed);
    let probe = layers::probe_engine(
        tracer,
        0,
        crawler.engine(),
        crawler.corpus(),
        crawler.net(),
        &inputs,
    );
    problems.extend(probe.problems);
    let postings = probe.index.postings_bytes();

    let meta = &dataset.meta;
    vec![
        ("engine.postings_bytes", postings as f64),
        (
            "crawler.serps_per_s",
            round.observations as f64 / round.crawl_s,
        ),
        ("crawler.rounds", round.round_ms.len() as f64),
        ("crawler.attempts", meta.attempts as f64),
        ("crawler.retries", meta.retries as f64),
        ("crawler.failed_jobs", meta.failed_jobs as f64),
        ("crawler.dataset_json_bytes", round.json_bytes as f64),
        ("trace.overhead_pct", overhead_pct),
    ]
}

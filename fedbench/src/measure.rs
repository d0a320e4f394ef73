//! What every workload shares: set-up timing, the one-client closed
//! loop, traced execution, network totals and the metrics each run
//! reports.

use crate::layers::{Breakdown, Layer};
use crate::reference::{check, right_but_for_names, Expected, Reference};
use crate::stats::{median, quantile};
use gis::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up is timed this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// One timed set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupSample {
    /// `build_fedmart` (plus any benchmark-owned source).
    pub build_s: f64,
    /// `ANALYZE` over every source.
    pub analyze_s: f64,
    /// Build, `ANALYZE` and runtime start.
    pub total_s: f64,
}

/// Builds FedMart at `scale` with the generator's default seed: the
/// data is the same in every run; `--seed` drives the query stream.
pub fn build(scale: f64) -> Result<FedMart> {
    build_fedmart(FedMartConfig {
        scale,
        ..FedMartConfig::default()
    })
}

pub fn analyze(fed: &Federation) -> Result<f64> {
    let t = Instant::now();
    fed.query("ANALYZE")?;
    Ok(t.elapsed().as_secs_f64())
}

/// Runs `setup` [`SETUP_REPEATS`] times, dropping all but the last
/// state before the next build so peak memory holds one federation.
pub fn repeat_setup<S>(
    mut setup: impl FnMut() -> Result<(S, SetupSample)>,
) -> Result<(S, Vec<SetupSample>)> {
    let mut samples = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let (s, sample) = setup()?;
        samples.push(sample);
        state = Some(s);
    }
    Ok((state.expect("at least one set-up"), samples))
}

/// One query a closed-loop workload sends, with its oracle.
pub struct Op {
    pub template: &'static str,
    pub sql: String,
    pub expected: Box<dyn Fn(&Reference) -> Expected>,
    /// The template ORDERs BY an aggregate alias, which the binder
    /// drops (ROADMAP item 5): the answer comes back with a column
    /// named after the aggregate, e.g. `sum(#11)` for `revenue`. A
    /// failure that only renames columns is counted, not flagged as
    /// incorrect.
    pub alias_fault: bool,
}

/// Checks one answer: `Ok` when right; otherwise why, and whether the
/// alias fault alone explains it.
pub fn judge(
    alias_fault: bool,
    batch: &Batch,
    expected: &Expected,
) -> std::result::Result<(), (String, bool)> {
    check(batch, expected).map_err(|why| (why, alias_fault && right_but_for_names(batch, expected)))
}

/// Totals over every link and the virtual clock, to difference around
/// a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetTotals {
    pub bytes: u64,
    pub virtual_us: u64,
}

impl NetTotals {
    pub fn capture(fed: &Federation) -> NetTotals {
        NetTotals {
            bytes: fed.all_links().iter().map(|l| l.metrics().bytes()).sum(),
            virtual_us: fed.clock().now_us(),
        }
    }

    pub fn since(self, before: NetTotals) -> NetTotals {
        NetTotals {
            bytes: self.bytes - before.bytes,
            virtual_us: self.virtual_us - before.virtual_us,
        }
    }
}

/// Per-query figures from a traced execution.
#[derive(Debug, Clone, Default)]
pub struct TracedQuery {
    pub execute_us: f64,
    pub breakdown: Breakdown,
    pub wire_bytes: u64,
    pub raw_bytes: u64,
    pub messages: u64,
    pub link_busy_us: u64,
}

impl TracedQuery {
    pub fn from_metrics(metrics: &QueryMetrics, execute_us: f64) -> Option<TracedQuery> {
        let trace = metrics.trace.as_ref()?;
        Some(TracedQuery {
            execute_us,
            breakdown: Breakdown::of(trace),
            wire_bytes: metrics.bytes_wire,
            raw_bytes: metrics.bytes_raw,
            messages: metrics.messages,
            link_busy_us: metrics.per_source.values().map(|t| t.busy_us).sum(),
        })
    }
}

/// Concurrent clients' wall time is cut into windows of about this
/// many seconds; their timing metrics are medians over windows, so
/// that a few seconds in which the host takes the cores away move them
/// little. A one-client phase is one window: its figures vary with the
/// seeded parameters more than with the host, and pool every query.
pub const WINDOW_S: f64 = 3.0;

/// One window of a phase.
#[derive(Debug, Default)]
pub struct Window {
    /// Measured time the window covers, s.
    pub seconds: f64,
    /// Latency of every operation in the window, ms.
    pub latencies_ms: Vec<f32>,
}

/// What one measured phase saw.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of every operation, ms, by template. Kept as `f32` so
    /// that the benchmark's own memory grows little with throughput.
    pub latencies_ms: BTreeMap<&'static str, Vec<f32>>,
    /// The same latencies by window, in order.
    pub windows: Vec<Window>,
    pub attempted: u64,
    pub failed: u64,
    /// Failures no known fault explains.
    pub unexpected: Vec<String>,
    pub net: NetTotals,
    pub traced: Vec<TracedQuery>,
    /// The benchmark's own timings of `gis_sql::parse` and
    /// `Federation::plan_statement_with`, µs.
    pub parse_us: Vec<f64>,
    pub plan_us: Vec<f64>,
    pub queue_wait_us: Vec<f64>,
    /// Largest resident set size sampled during the phase, MiB.
    pub peak_rss_mb: f64,
}

impl Phase {
    pub fn record_failure(&mut self, template: &str, known: bool, why: String) {
        self.failed += 1;
        if !known && self.unexpected.len() < 8 {
            self.unexpected.push(format!("{template}: {why}"));
        }
    }

    /// Records one operation's latency into window `window`.
    pub fn record_latency(&mut self, template: &'static str, window: usize, took: Duration) {
        let ms = (took.as_secs_f64() * 1e3) as f32;
        self.latencies_ms.entry(template).or_default().push(ms);
        if self.windows.len() <= window {
            self.windows.resize_with(window + 1, Window::default);
        }
        self.windows[window].latencies_ms.push(ms);
    }

    /// The median over windows of `f`.
    pub fn per_window(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(&self.windows.iter().map(f).collect::<Vec<_>>())
    }

    /// Every operation's latency, ms.
    pub fn all_latencies(&self) -> Vec<f64> {
        self.windows
            .iter()
            .flat_map(|w| &w.latencies_ms)
            .map(|&l| f64::from(l))
            .collect()
    }

    /// Per template: queries, median and p90 latency, ms.
    pub fn template_summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        self.latencies_ms
            .iter()
            .map(|(&t, l)| {
                let l: Vec<f64> = l.iter().map(|&x| f64::from(x)).collect();
                (t, l.len(), median(&l), quantile(&l, 0.9).unwrap_or(0.0))
            })
            .collect()
    }

    pub fn merge(&mut self, other: Phase) {
        for (t, l) in other.latencies_ms {
            self.latencies_ms.entry(t).or_default().extend(l);
        }
        if self.windows.len() < other.windows.len() {
            self.windows
                .resize_with(other.windows.len(), Window::default);
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.latencies_ms.extend(theirs.latencies_ms);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.unexpected.extend(other.unexpected);
        self.traced.extend(other.traced);
        self.parse_us.extend(other.parse_us);
        self.plan_us.extend(other.plan_us);
        self.queue_wait_us.extend(other.queue_wait_us);
        self.peak_rss_mb = self.peak_rss_mb.max(other.peak_rss_mb);
    }
}

/// Runs whole rounds from `next_round` through one client until the
/// summed query time reaches `seconds`, all in one window. Answers are
/// checked between queries, outside the measured time.
pub fn closed_loop(
    fed: &Federation,
    reference: &Reference,
    next_round: &mut dyn FnMut() -> Vec<Op>,
    seconds: f64,
    traced: bool,
) -> Phase {
    let optimizer = fed.optimizer_options();
    let mut exec = fed.exec_options();
    exec.tracing = traced;
    let before = NetTotals::capture(fed);
    let rss = RssSampler::start();
    let mut phase = Phase::default();
    let mut busy = Duration::ZERO;
    while busy.as_secs_f64() < seconds {
        for op in next_round() {
            let started = Instant::now();
            let outcome = if traced {
                run_traced(fed, &op.sql, &optimizer, &exec, &mut phase)
            } else {
                fed.query_with(&op.sql, &optimizer, &exec)
            };
            let took = started.elapsed();
            busy += took;
            phase.attempted += 1;
            phase.record_latency(op.template, 0, took);
            match outcome {
                Ok(result) => {
                    let expected = (op.expected)(reference);
                    if let Err((why, known)) = judge(op.alias_fault, &result.batch, &expected) {
                        phase.record_failure(op.template, known, why);
                    }
                }
                Err(e) => phase.record_failure(op.template, false, e.to_string()),
            }
        }
    }
    if let Some(w) = phase.windows.first_mut() {
        w.seconds = busy.as_secs_f64();
    }
    phase.net = NetTotals::capture(fed).since(before);
    phase.peak_rss_mb = rss.finish();
    phase
}

/// One query through the benchmark's own calls to the parser, the
/// planner and the executor, each timed into `phase`.
fn run_traced(
    fed: &Federation,
    sql: &str,
    optimizer: &OptimizerOptions,
    exec: &ExecOptions,
    phase: &mut Phase,
) -> Result<QueryResult> {
    let t0 = Instant::now();
    let stmt = gis::sql::parse(sql)?;
    let t1 = Instant::now();
    let plan = fed.plan_statement_with(&stmt, optimizer)?;
    let t2 = Instant::now();
    let result = fed.execute_logical(&plan, exec, 0, None)?;
    let t3 = Instant::now();
    phase.parse_us.push(micros(t1 - t0));
    phase.plan_us.push(micros(t2 - t1));
    phase
        .traced
        .extend(TracedQuery::from_metrics(&result.metrics, micros(t3 - t2)));
    Ok(result)
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Resident set size of this process, MiB, from `VmRSS`.
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn return_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim only releases free pages of the
    // allocator's own arenas; it touches no live allocation.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn return_free_heap() {}

/// How often [`RssSampler`] reads the resident set size.
const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(5);

/// Samples the resident set size while a measured phase runs, so that
/// `peak_rss_mb` covers that phase only. Before the first sample, the
/// heap that set-up and the reference snapshot freed is handed back to
/// the system, so the figure is what the phase holds and allocates.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<f64>,
}

impl RssSampler {
    pub fn start() -> RssSampler {
        return_free_heap();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = rss_mb();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(RSS_SAMPLE_EVERY);
                peak = peak.max(rss_mb());
            }
            peak
        });
        RssSampler { stop, handle }
    }

    /// Stops sampling; the largest resident set size seen, MiB.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("RSS sampler panicked")
    }
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(phase: &Phase, setups: &[SetupSample]) -> Vec<Metric> {
    let ops = phase.attempted.max(1) as f64;
    let pct = |q| {
        phase.per_window(|w| {
            let l: Vec<f64> = w.latencies_ms.iter().map(|&x| f64::from(x)).collect();
            quantile(&l, q).unwrap_or(0.0)
        })
    };
    vec![
        (
            "qps",
            phase.per_window(|w| w.latencies_ms.len() as f64 / w.seconds),
            "1/s",
        ),
        ("latency_ms_p50", pct(0.50), "ms"),
        ("latency_ms_p90", pct(0.90), "ms"),
        ("latency_ms_p99", pct(0.99), "ms"),
        (
            "wan_ms_per_query",
            phase.net.virtual_us as f64 / 1e3 / ops,
            "ms",
        ),
        (
            "wire_kb_per_query",
            phase.net.bytes as f64 / 1e3 / ops,
            "kB",
        ),
        ("peak_rss_mb", phase.peak_rss_mb, "MB"),
        (
            "setup_s",
            median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>()),
            "s",
        ),
    ]
}

/// Figures only a workload with a serving runtime has; zero otherwise.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuntimeFigures {
    pub plan_cache_hit_ratio: f64,
    pub result_cache_hit_ratio: f64,
    pub mem_pool_peak_mb: f64,
}

/// The per-layer metrics of a traced run: `untraced` and `traced` are
/// the two halves of the run, the breakdown comes from `traced`.
pub fn per_layer(
    untraced: &Phase,
    traced: &Phase,
    setups: &[SetupSample],
    fed: &Federation,
    runtime: RuntimeFigures,
) -> Vec<Metric> {
    let q = &traced.traced;
    let med = |f: &dyn Fn(&TracedQuery) -> f64| median(&q.iter().map(f).collect::<Vec<_>>());
    let layer = |l: Layer| med(&|t| t.breakdown.self_us(l) as f64);
    let rows_in: u64 = q.iter().map(|t| t.breakdown.fragment_rows_in).sum();
    let rows_out: u64 = q.iter().map(|t| t.breakdown.fragment_rows_out).sum();
    let gauges = fed.stats_gauges();
    let p50 = |p: &Phase| median(&p.all_latencies());
    let overhead = if p50(untraced) > 0.0 {
        100.0 * (p50(traced) / p50(untraced) - 1.0)
    } else {
        0.0
    };
    vec![
        ("sql.parse_us", median(&traced.parse_us), "us"),
        ("core.plan_us", median(&traced.plan_us), "us"),
        ("core.execute_us", med(&|t| t.execute_us), "us"),
        ("core.exec.bindjoin_self_us", layer(Layer::BindJoin), "us"),
        ("core.exec.hashjoin_self_us", layer(Layer::HashJoin), "us"),
        ("core.exec.aggregate_self_us", layer(Layer::Aggregate), "us"),
        (
            "core.exec.materialize_self_us",
            layer(Layer::Materialize),
            "us",
        ),
        ("core.exec.fragment_self_us", layer(Layer::Fragment), "us"),
        (
            "core.exec.kernel_rows",
            med(&|t| t.breakdown.kernel_rows as f64),
            "rows",
        ),
        ("adapters.lookup_self_us", layer(Layer::Lookup), "us"),
        ("adapters.scan_self_us", layer(Layer::Scan), "us"),
        (
            "adapters.shipped_row_keep_ratio",
            if rows_in == 0 {
                0.0
            } else {
                rows_out as f64 / rows_in as f64
            },
            "ratio",
        ),
        ("net.recv_self_us", layer(Layer::Recv), "us"),
        ("net.wire_bytes", med(&|t| t.wire_bytes as f64), "bytes"),
        ("net.raw_bytes", med(&|t| t.raw_bytes as f64), "bytes"),
        ("net.messages", med(&|t| t.messages as f64), "count"),
        (
            "net.link_busy_ms",
            med(&|t| t.link_busy_us as f64 / 1e3),
            "ms",
        ),
        (
            "runtime.plan_cache_hit_ratio",
            runtime.plan_cache_hit_ratio,
            "ratio",
        ),
        (
            "runtime.result_cache_hit_ratio",
            runtime.result_cache_hit_ratio,
            "ratio",
        ),
        ("runtime.queue_wait_us", median(&traced.queue_wait_us), "us"),
        ("runtime.mem_pool_peak_mb", runtime.mem_pool_peak_mb, "MB"),
        (
            "stats.analyze_ms",
            1e3 * median(&setups.iter().map(|s| s.analyze_s).collect::<Vec<_>>()),
            "ms",
        ),
        (
            "datagen.build_s",
            median(&setups.iter().map(|s| s.build_s).collect::<Vec<_>>()),
            "s",
        ),
        ("stats.qerror_median", gauges.qerror_median, "ratio"),
        (
            "stats.reanalyze_scheduled",
            gauges.reanalyze_scheduled as f64,
            "count",
        ),
        ("observe.tracing_overhead_pct", overhead, "%"),
        (
            "observe.unclassified_self_us",
            layer(Layer::Unclassified),
            "us",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis::types::{DataType, Field, Schema};

    fn answer(revenue_name: &str, revenue: f64) -> Batch {
        let schema = Schema::new(vec![
            Field::new("region", DataType::Utf8),
            Field::new(revenue_name, DataType::Float64),
        ])
        .into_ref();
        Batch::from_rows(
            schema,
            &[vec![Value::Utf8("east".into()), Value::Float64(revenue)]],
        )
        .unwrap()
    }

    #[test]
    fn the_alias_fault_excuses_only_a_renamed_column() {
        let expected = Expected::unordered(
            vec![("region", DataType::Utf8), ("revenue", DataType::Float64)],
            vec![vec![Value::Utf8("east".into()), Value::Float64(10.5)]],
        );
        assert_eq!(judge(true, &answer("revenue", 10.5), &expected), Ok(()));
        let renamed = judge(true, &answer("sum(#11)", 10.5), &expected);
        assert!(matches!(renamed, Err((_, true))), "{renamed:?}");
        // A wrong value is flagged even on a template with the fault.
        let wrong = judge(true, &answer("sum(#11)", 11.0), &expected);
        assert!(matches!(wrong, Err((_, false))), "{wrong:?}");
        // Templates without the fault are never excused.
        let strict = judge(false, &answer("sum(#11)", 10.5), &expected);
        assert!(matches!(strict, Err((_, false))), "{strict:?}");
    }
}

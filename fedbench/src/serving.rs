//! `serving`: point selects and small joins behind `Runtime` over
//! FedMart scale 4, plus appends to a relational source the benchmark
//! owns (`ledger.events`). `nproc` client threads each run a closed
//! loop through their own session; the runtime has `nproc` workers.
//!
//! Read literals are drawn Zipf over key spaces larger than the
//! 256-entry plan cache. Reads of `events` are checked against the
//! benchmark's own log of written rows, so a stale cached result is a
//! wrong answer.

use crate::measure::{analyze, build, end_to_end, micros, per_layer, repeat_setup};
use crate::measure::{
    NetTotals, Phase, RssSampler, RuntimeFigures, SetupSample, TracedQuery, Window, WINDOW_S,
};
use crate::reference::{check, Expected, Reference};
use crate::rng::{self, shuffle, Rng, Zipf};
use crate::Report;
use gis::datagen::fedmart::FedMartSizes;
use gis::prelude::*;
use gis::types::DataType::{Float64, Int64, Utf8};
use rand::RngExt;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const SCALE: f64 = 4.0;
/// Zipf exponent of every key draw.
const SKEW: f64 = 1.0;
/// Events in the ledger before the first write.
const PRELOADED_EVENTS: usize = 4_000;
/// Per-client round: (read template, queries per round); two writes
/// complete the round of 40 operations (5 % writes).
const READS: [(Read, usize); 7] = [
    (Read::Customer, 8),
    (Read::Product, 5),
    (Read::Stock, 5),
    (Read::ProductStock, 6),
    (Read::OrderProduct, 6),
    (Read::EventTotals, 4),
    (Read::EventRows, 4),
];
const WRITES_PER_ROUND: usize = 2;
/// Distinct SQL texts whose parse and plan the traced run times.
const FRONTEND_SAMPLES: usize = 2_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Read {
    Customer,
    Product,
    Stock,
    ProductStock,
    OrderProduct,
    EventTotals,
    EventRows,
}

#[derive(Debug, Clone, Copy)]
enum ServingOp {
    Read(Read, i64),
    Write { cust_id: i64, amount: f64 },
}

impl Read {
    fn name(self) -> &'static str {
        match self {
            Read::Customer => "customer",
            Read::Product => "product",
            Read::Stock => "stock",
            Read::ProductStock => "product_stock",
            Read::OrderProduct => "order_product",
            Read::EventTotals => "event_totals",
            Read::EventRows => "event_rows",
        }
    }

    fn reads_ledger(self) -> bool {
        matches!(self, Read::EventTotals | Read::EventRows)
    }

    fn sql(self, key: i64) -> String {
        match self {
            Read::Customer => {
                format!("SELECT name, region, tier, balance FROM customers WHERE id = {key}")
            }
            Read::Product => {
                format!("SELECT pname, category, price FROM products WHERE product_id = {key}")
            }
            Read::Stock => format!("SELECT warehouse, qty FROM stock WHERE product_id = {key}"),
            Read::ProductStock => format!(
                "SELECT p.pname, s.warehouse, s.qty FROM products p \
                 JOIN stock s ON p.product_id = s.product_id WHERE p.product_id = {key}"
            ),
            Read::OrderProduct => format!(
                "SELECT o.order_id, o.amount, p.pname FROM orders o \
                 JOIN products p ON o.product_id = p.product_id WHERE o.order_id = {key}"
            ),
            Read::EventTotals => {
                format!(
                    "SELECT count(*) AS n, sum(amount) AS total FROM events WHERE cust_id = {key}"
                )
            }
            Read::EventRows => format!(
                "SELECT e.event_id, e.amount, c.name FROM events e \
                 JOIN customers c ON e.cust_id = c.id WHERE e.cust_id = {key}"
            ),
        }
    }

    /// The expected answer of a read of FedMart's own tables.
    fn expected(self, key: i64, r: &Reference) -> Expected {
        let rows = match self {
            Read::Customer => r
                .customer(key)
                .map(|c| {
                    vec![
                        Value::Utf8(c.name.clone()),
                        Value::Utf8(c.region.clone()),
                        Value::Utf8(c.tier.clone()),
                        Value::Float64(c.balance),
                    ]
                })
                .into_iter()
                .collect(),
            Read::Product => r
                .product(key)
                .map(|p| {
                    vec![
                        Value::Utf8(p.pname.clone()),
                        Value::Utf8(p.category.clone()),
                        Value::Float64(p.price),
                    ]
                })
                .into_iter()
                .collect(),
            Read::Stock => r
                .stock_of_product(key)
                .map(|s| vec![Value::Int64(s.warehouse), Value::Int64(s.qty)])
                .collect(),
            Read::ProductStock => r
                .product(key)
                .into_iter()
                .flat_map(|p| {
                    r.stock_of_product(key).map(|s| {
                        vec![
                            Value::Utf8(p.pname.clone()),
                            Value::Int64(s.warehouse),
                            Value::Int64(s.qty),
                        ]
                    })
                })
                .collect(),
            Read::OrderProduct => r
                .order(key)
                .and_then(|o| {
                    let p = r.product(o.product_id)?;
                    Some(vec![
                        Value::Int64(o.order_id),
                        Value::Float64(o.amount),
                        Value::Utf8(p.pname.clone()),
                    ])
                })
                .into_iter()
                .collect(),
            Read::EventTotals | Read::EventRows => {
                unreachable!("ledger reads are checked against the log")
            }
        };
        Expected::unordered(self.columns(), rows)
    }

    fn columns(self) -> Vec<(&'static str, gis::types::DataType)> {
        match self {
            Read::Customer => vec![
                ("name", Utf8),
                ("region", Utf8),
                ("tier", Utf8),
                ("balance", Float64),
            ],
            Read::Product => vec![("pname", Utf8), ("category", Utf8), ("price", Float64)],
            Read::Stock => vec![("warehouse", Int64), ("qty", Int64)],
            Read::ProductStock => vec![("pname", Utf8), ("warehouse", Int64), ("qty", Int64)],
            Read::OrderProduct => vec![("order_id", Int64), ("amount", Float64), ("pname", Utf8)],
            Read::EventTotals => vec![("n", Int64), ("total", Float64)],
            Read::EventRows => vec![("event_id", Int64), ("amount", Float64), ("name", Utf8)],
        }
    }
}

/// Key spaces and their Zipf samplers.
struct Keys {
    customers: Zipf,
    products: Zipf,
    orders: Zipf,
}

impl Keys {
    fn new(sizes: &FedMartSizes) -> Keys {
        Keys {
            customers: Zipf::new(sizes.customers, SKEW),
            products: Zipf::new(sizes.products, SKEW),
            orders: Zipf::new(sizes.orders, SKEW),
        }
    }

    /// One client's round: the fixed mix, shuffled.
    fn round(&self, rng: &mut Rng) -> Vec<ServingOp> {
        let mut ops = Vec::with_capacity(40);
        for &(read, n) in &READS {
            for _ in 0..n {
                let keys = match read {
                    Read::Customer | Read::EventTotals | Read::EventRows => &self.customers,
                    Read::Product | Read::Stock | Read::ProductStock => &self.products,
                    Read::OrderProduct => &self.orders,
                };
                ops.push(ServingOp::Read(read, keys.sample(rng) as i64));
            }
        }
        for _ in 0..WRITES_PER_ROUND {
            ops.push(ServingOp::Write {
                cust_id: self.customers.sample(rng) as i64,
                amount: rng.random_range(100..=99_999) as f64 / 100.0,
            });
        }
        shuffle(rng, &mut ops);
        ops
    }
}

#[derive(Debug, Clone, Copy)]
struct Event {
    event_id: i64,
    amount: f64,
}

/// The benchmark-owned source and its log of every row written to it,
/// in commit order.
struct Ledger {
    adapter: Arc<RelationalAdapter>,
    log: Mutex<LedgerLog>,
}

#[derive(Default)]
struct LedgerLog {
    events: Vec<Event>,
    by_customer: HashMap<i64, Vec<usize>>,
}

impl Ledger {
    /// Creates `ledger.events` with [`PRELOADED_EVENTS`] rows drawn
    /// from a fixed stream (the same in every run).
    fn create(customers: usize) -> Result<Ledger> {
        let schema = Schema::new(vec![
            Field::required("event_id", DataType::Int64),
            Field::new("cust_id", DataType::Int64),
            Field::new("amount", DataType::Float64),
        ])
        .into_ref();
        let adapter = Arc::new(RelationalAdapter::new("ledger"));
        adapter.add_table(RowStore::new("events", schema, Some(0))?);
        let ledger = Ledger {
            adapter,
            log: Mutex::new(LedgerLog::default()),
        };
        let zipf = Zipf::new(customers, SKEW);
        let mut rng = rng::stream(0x1ED6E2, 0);
        for _ in 0..PRELOADED_EVENTS {
            ledger.append(
                zipf.sample(&mut rng) as i64,
                rng.random_range(100..=99_999) as f64 / 100.0,
            )?;
        }
        Ok(ledger)
    }

    fn append(&self, cust_id: i64, amount: f64) -> Result<()> {
        let mut log = self.log.lock().expect("ledger log poisoned");
        let event = Event {
            event_id: log.events.len() as i64,
            amount,
        };
        self.adapter.load(
            "events",
            [vec![
                Value::Int64(event.event_id),
                Value::Int64(cust_id),
                Value::Float64(amount),
            ]],
        )?;
        let seq = log.events.len();
        log.by_customer.entry(cust_id).or_default().push(seq);
        log.events.push(event);
        Ok(())
    }

    fn committed(&self) -> usize {
        self.log.lock().expect("ledger log poisoned").events.len()
    }

    /// Checks a ledger read that started after `before` writes had
    /// committed: it must match the log as of some commit count from
    /// `before` to now.
    fn check(
        &self,
        read: Read,
        cust_id: i64,
        before: usize,
        batch: &Batch,
        r: &Reference,
    ) -> std::result::Result<(), String> {
        let log = self.log.lock().expect("ledger log poisoned");
        let mine: Vec<&Event> = log
            .by_customer
            .get(&cust_id)
            .into_iter()
            .flatten()
            .map(|&i| &log.events[i])
            .collect();
        let mut last_err = String::new();
        for committed in before..=log.events.len() {
            let visible = mine.iter().filter(|e| (e.event_id as usize) < committed);
            let rows = match read {
                Read::EventTotals => {
                    let (n, total) = visible.fold((0i64, None::<f64>), |(n, t), e| {
                        (n + 1, Some(t.unwrap_or(0.0) + e.amount))
                    });
                    vec![vec![
                        Value::Int64(n),
                        total.map_or(Value::Null, Value::Float64),
                    ]]
                }
                _ => {
                    let name = r.customer(cust_id).map(|c| c.name.clone());
                    visible
                        .filter_map(|e| {
                            Some(vec![
                                Value::Int64(e.event_id),
                                Value::Float64(e.amount),
                                Value::Utf8(name.clone()?),
                            ])
                        })
                        .collect()
                }
            };
            match check(batch, &Expected::unordered(read.columns(), rows)) {
                Ok(()) => return Ok(()),
                Err(e) => last_err = e,
            }
        }
        Err(format!(
            "stale or wrong ledger read (committed {before}..={}): {last_err}",
            log.events.len()
        ))
    }
}

struct State {
    runtime: Runtime,
    ledger: Arc<Ledger>,
    sizes: FedMartSizes,
}

fn setup() -> Result<(State, SetupSample)> {
    let started = Instant::now();
    let fm = build(SCALE)?;
    let ledger = Ledger::create(fm.sizes.customers)?;
    fm.federation.add_source(
        ledger.adapter.clone() as Arc<dyn SourceAdapter>,
        fm.config.conditions,
    )?;
    fm.federation
        .add_global_identity("events", "ledger", "events")?;
    let build_s = started.elapsed().as_secs_f64();
    let analyze_s = analyze(&fm.federation)?;
    let runtime = Runtime::new(
        Arc::new(fm.federation),
        RuntimeConfig::default().with_workers(clients()),
    );
    let state = State {
        runtime,
        ledger: Arc::new(ledger),
        sizes: fm.sizes,
    };
    let sample = SetupSample {
        build_s,
        analyze_s,
        total_s: started.elapsed().as_secs_f64(),
    };
    Ok((state, sample))
}

/// Client threads (and runtime workers): one per available core.
fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The windows of a phase's wall time: `count` of `seconds` each
/// from `start`; an operation belongs to the window it starts in.
struct Windows {
    start: Instant,
    seconds: f64,
    count: usize,
}

impl Windows {
    fn new(seconds: f64) -> Windows {
        let count = ((seconds / WINDOW_S).round() as usize).max(1);
        Windows {
            start: Instant::now(),
            seconds: seconds / count as f64,
            count,
        }
    }

    fn deadline(&self) -> Instant {
        self.start + Duration::from_secs_f64(self.seconds * self.count as f64)
    }

    fn of(&self, t: Instant) -> usize {
        let i = (t - self.start).as_secs_f64() / self.seconds;
        (i as usize).min(self.count - 1)
    }
}

/// One client: whole rounds until the last window ends, answers
/// checked inline.
fn client(
    state: &State,
    reference: &Reference,
    keys: &Keys,
    mut rng: Rng,
    windows: &Windows,
    traced: bool,
) -> Phase {
    let deadline = windows.deadline();
    let mut session = state.runtime.session();
    let mut exec = session.exec_options();
    exec.tracing = traced;
    session.set_exec_options(exec);
    let mut phase = Phase::default();
    while Instant::now() < deadline {
        for op in keys.round(&mut rng) {
            phase.attempted += 1;
            match op {
                ServingOp::Write { cust_id, amount } => {
                    let started = Instant::now();
                    let outcome = state.ledger.append(cust_id, amount);
                    phase.record_latency("write", windows.of(started), started.elapsed());
                    if let Err(e) = outcome {
                        phase.record_failure("write", false, e.to_string());
                    }
                }
                ServingOp::Read(read, key) => {
                    let sql = read.sql(key);
                    let before = if read.reads_ledger() {
                        state.ledger.committed()
                    } else {
                        0
                    };
                    let started = Instant::now();
                    let outcome = session.query(&sql);
                    phase.record_latency(read.name(), windows.of(started), started.elapsed());
                    let result = match outcome {
                        Ok(result) => result,
                        Err(e) => {
                            phase.record_failure(read.name(), false, e.to_string());
                            continue;
                        }
                    };
                    if traced {
                        phase
                            .queue_wait_us
                            .push(result.metrics.queue_wait_us as f64);
                    }
                    if let Some(trace) = &result.metrics.trace {
                        phase.traced.extend(TracedQuery::from_metrics(
                            &result.metrics,
                            trace.wall_us as f64,
                        ));
                    }
                    let verdict = if read.reads_ledger() {
                        state
                            .ledger
                            .check(read, key, before, &result.batch, reference)
                    } else {
                        check(&result.batch, &read.expected(key, reference))
                    };
                    if let Err(why) = verdict {
                        phase.record_failure(read.name(), false, why);
                    }
                }
            }
        }
    }
    phase
}

/// `clients()` threads for `seconds` of wall time.
fn phase(
    state: &State,
    reference: &Reference,
    keys: &Keys,
    seed: u64,
    stream: u64,
    seconds: f64,
    traced: bool,
) -> Phase {
    let fed = state.runtime.federation();
    let before = NetTotals::capture(fed);
    let rss = RssSampler::start();
    let windows = Windows::new(seconds);
    let n = clients();
    let mut total = Phase::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let rng = rng::stream(seed, stream * 1_000 + i as u64 + 1);
                let windows = &windows;
                s.spawn(move || client(state, reference, keys, rng, windows, traced))
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("client thread panicked"));
        }
    });
    let measured_s = windows.start.elapsed().as_secs_f64();
    // The last window also holds the rounds that ran past the deadline.
    let last = windows.count - 1;
    total.windows.resize_with(windows.count, Window::default);
    for (i, w) in total.windows.iter_mut().enumerate() {
        w.seconds = if i < last {
            windows.seconds
        } else {
            measured_s - windows.seconds * last as f64
        };
    }
    total.net = NetTotals::capture(fed).since(before);
    total.peak_rss_mb = rss.finish();
    total
}

/// Times the benchmark's own parse and plan calls over the distinct
/// read texts of one client's stream.
fn time_frontend(fed: &Federation, keys: &Keys, seed: u64, into: &mut Phase) -> Result<()> {
    let optimizer = fed.optimizer_options();
    let mut rng = rng::stream(seed, 0);
    let mut seen = std::collections::HashSet::new();
    while seen.len() < FRONTEND_SAMPLES {
        for op in keys.round(&mut rng) {
            let ServingOp::Read(read, key) = op else {
                continue;
            };
            let sql = read.sql(key);
            if !seen.insert(sql.clone()) {
                continue;
            }
            let t0 = Instant::now();
            let stmt = gis::sql::parse(&sql)?;
            let t1 = Instant::now();
            fed.plan_statement_with(&stmt, &optimizer)?;
            into.parse_us.push(micros(t1 - t0));
            into.plan_us.push(micros(t1.elapsed()));
        }
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report> {
    let (state, setups) = repeat_setup(setup)?;
    let fed = state.runtime.federation().clone();
    let reference = Reference::fetch(&fed, &state.sizes)?;
    let keys = Keys::new(&state.sizes);
    let report = if !trace {
        let p = phase(&state, &reference, &keys, seed, 0, seconds, false);
        let metrics = end_to_end(&p, &setups);
        Report::new(&[&p], metrics)
    } else {
        let untraced = phase(&state, &reference, &keys, seed, 0, seconds / 2.0, false);
        let mut traced = phase(&state, &reference, &keys, seed, 1, seconds / 2.0, true);
        time_frontend(&fed, &keys, seed, &mut traced)?;
        let stats = state.runtime.stats();
        let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
        let figures = RuntimeFigures {
            plan_cache_hit_ratio: ratio(stats.plan_cache_hits, stats.plan_cache_misses),
            result_cache_hit_ratio: ratio(stats.result_cache_hits, stats.result_cache_misses),
            mem_pool_peak_mb: stats.mem_pool_peak as f64 / (1024.0 * 1024.0),
        };
        let metrics = per_layer(&untraced, &traced, &setups, &fed, figures);
        Report::new(&[&untraced, &traced], metrics)
    };
    state.runtime.shutdown();
    Ok(report)
}

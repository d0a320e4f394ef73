//! `analytic`: multi-source joins with GROUP BY, DISTINCT and
//! ORDER BY ... LIMIT over FedMart scale 10 (100k orders), one client
//! in a closed loop on `Federation::query_with`, no runtime caches.

use crate::measure::Op;
use crate::reference::{Expected, Reference};
use crate::rng::{pick, shuffle, Rng};
use gis::datagen::fedmart::CATEGORIES;
use gis::prelude::*;
use gis::types::value::format_date;
use gis::types::DataType::{Float64, Int64, Utf8};
use rand::RngExt;
use std::collections::{BTreeMap, BTreeSet};

pub const SCALE: f64 = 10.0;

/// FedMart's order days span `[FIRST_DAY, LAST_DAY]`.
const FIRST_DAY: i32 = 18_000;
const LAST_DAY: i32 = 18_999;
/// Length of every seeded date window, days.
const WINDOW_DAYS: i32 = 240;

/// One round: every template in its fixed proportion, shuffled.
pub fn round(rng: &mut Rng) -> Vec<Op> {
    let mut ops = vec![revenue_by_region(), top_categories()];
    for _ in 0..2 {
        ops.push(region_category_window(rng));
        ops.push(distinct_region_category(rng));
    }
    for threshold in [400.0, 600.0] {
        ops.push(top_orders(rng, threshold));
    }
    for category in CATEGORIES {
        ops.push(category_spenders(category));
    }
    shuffle(rng, &mut ops);
    ops
}

fn window(rng: &mut Rng) -> (i32, i32) {
    let start = rng.random_range(FIRST_DAY as i64..=(LAST_DAY - WINDOW_DAYS + 1) as i64) as i32;
    (start, start + WINDOW_DAYS - 1)
}

/// Seed-independent: fails on every run until the alias fault is
/// fixed.
fn revenue_by_region() -> Op {
    Op {
        template: "revenue_by_region",
        sql: "SELECT c.region, sum(o.amount) AS revenue \
              FROM customers c JOIN orders o ON c.id = o.cust_id \
              GROUP BY c.region ORDER BY revenue DESC"
            .into(),
        expected: Box::new(|r: &Reference| {
            let mut revenue: BTreeMap<&str, f64> = BTreeMap::new();
            for o in &r.orders {
                if let Some(c) = r.customer(o.cust_id) {
                    *revenue.entry(&c.region).or_default() += o.amount;
                }
            }
            let rows = revenue
                .into_iter()
                .map(|(region, v)| vec![Value::Utf8(region.into()), Value::Float64(v)])
                .collect();
            Expected::ordered(
                vec![("region", Utf8), ("revenue", Float64)],
                rows,
                vec![(1, true)],
                None,
            )
        }),
        alias_fault: true,
    }
}

/// Seed-independent, like [`revenue_by_region`].
fn top_categories() -> Op {
    let (from, to) = (18_262, 18_443); // 2020-01-01 ..= 2020-06-30
    Op {
        template: "top_categories",
        sql: format!(
            "SELECT p.category, count(*) AS n \
             FROM orders o JOIN products p ON o.product_id = p.product_id \
             WHERE o.order_day BETWEEN DATE '{}' AND DATE '{}' \
             GROUP BY p.category ORDER BY n DESC LIMIT 3",
            format_date(from),
            format_date(to)
        ),
        expected: Box::new(move |r: &Reference| {
            let mut n: BTreeMap<&str, i64> = BTreeMap::new();
            for o in r
                .orders
                .iter()
                .filter(|o| (from..=to).contains(&o.order_day))
            {
                if let Some(p) = r.product(o.product_id) {
                    *n.entry(&p.category).or_default() += 1;
                }
            }
            let rows = n
                .into_iter()
                .map(|(cat, n)| vec![Value::Utf8(cat.into()), Value::Int64(n)])
                .collect();
            Expected::ordered(
                vec![("category", Utf8), ("n", Int64)],
                rows,
                vec![(1, true)],
                Some(3),
            )
        }),
        alias_fault: true,
    }
}

fn region_category_window(rng: &mut Rng) -> Op {
    let (from, to) = window(rng);
    Op {
        template: "region_category_window",
        sql: format!(
            "SELECT c.region, p.category, sum(o.amount) AS revenue, count(*) AS n \
             FROM customers c JOIN orders o ON c.id = o.cust_id \
             JOIN products p ON o.product_id = p.product_id \
             WHERE o.order_day BETWEEN DATE '{}' AND DATE '{}' \
             GROUP BY c.region, p.category",
            format_date(from),
            format_date(to)
        ),
        expected: Box::new(move |r: &Reference| {
            let mut groups: BTreeMap<(&str, &str), (f64, i64)> = BTreeMap::new();
            for o in r
                .orders
                .iter()
                .filter(|o| (from..=to).contains(&o.order_day))
            {
                if let (Some(c), Some(p)) = (r.customer(o.cust_id), r.product(o.product_id)) {
                    let g = groups.entry((&c.region, &p.category)).or_default();
                    g.0 += o.amount;
                    g.1 += 1;
                }
            }
            let rows = groups
                .into_iter()
                .map(|((region, cat), (sum, n))| {
                    vec![
                        Value::Utf8(region.into()),
                        Value::Utf8(cat.into()),
                        Value::Float64(sum),
                        Value::Int64(n),
                    ]
                })
                .collect();
            Expected::unordered(
                vec![
                    ("region", Utf8),
                    ("category", Utf8),
                    ("revenue", Float64),
                    ("n", Int64),
                ],
                rows,
            )
        }),
        alias_fault: false,
    }
}

fn distinct_region_category(rng: &mut Rng) -> Op {
    let min_qty = rng.random_range(10..=19);
    Op {
        template: "distinct_region_category",
        sql: format!(
            "SELECT DISTINCT c.region, p.category \
             FROM customers c JOIN orders o ON c.id = o.cust_id \
             JOIN products p ON o.product_id = p.product_id \
             WHERE o.quantity >= {min_qty}"
        ),
        expected: Box::new(move |r: &Reference| {
            let mut pairs: BTreeSet<(&str, &str)> = BTreeSet::new();
            for o in r.orders.iter().filter(|o| o.quantity >= min_qty) {
                if let (Some(c), Some(p)) = (r.customer(o.cust_id), r.product(o.product_id)) {
                    pairs.insert((&c.region, &p.category));
                }
            }
            let rows = pairs
                .into_iter()
                .map(|(region, cat)| vec![Value::Utf8(region.into()), Value::Utf8(cat.into())])
                .collect();
            Expected::unordered(vec![("region", Utf8), ("category", Utf8)], rows)
        }),
        alias_fault: false,
    }
}

fn top_orders(rng: &mut Rng, min_amount: f64) -> Op {
    let (from, to) = window(rng);
    let k = *pick(rng, &[10usize, 20, 50, 100]);
    Op {
        template: "top_orders",
        sql: format!(
            "SELECT o.order_id, c.name, o.amount \
             FROM orders o JOIN customers c ON o.cust_id = c.id \
             WHERE o.amount >= {min_amount:.1} AND o.order_day BETWEEN DATE '{}' AND DATE '{}' \
             ORDER BY o.amount DESC, o.order_id LIMIT {k}",
            format_date(from),
            format_date(to)
        ),
        expected: Box::new(move |r: &Reference| {
            let rows = r
                .orders
                .iter()
                .filter(|o| o.amount >= min_amount && (from..=to).contains(&o.order_day))
                .filter_map(|o| {
                    let c = r.customer(o.cust_id)?;
                    Some(vec![
                        Value::Int64(o.order_id),
                        Value::Utf8(c.name.clone()),
                        Value::Float64(o.amount),
                    ])
                })
                .collect();
            Expected::ordered(
                vec![("order_id", Int64), ("name", Utf8), ("amount", Float64)],
                rows,
                vec![(2, true), (0, false)],
                Some(k),
            )
        }),
        alias_fault: false,
    }
}

fn category_spenders(category: &'static str) -> Op {
    Op {
        template: "category_spenders",
        sql: format!(
            "SELECT o.cust_id, sum(o.amount) AS spent, count(*) AS n \
             FROM orders o JOIN products p ON o.product_id = p.product_id \
             WHERE p.category = '{category}' GROUP BY o.cust_id"
        ),
        expected: Box::new(move |r: &Reference| {
            let mut spend: BTreeMap<i64, (f64, i64)> = BTreeMap::new();
            for o in &r.orders {
                if r.product(o.product_id)
                    .is_some_and(|p| p.category == category)
                {
                    let s = spend.entry(o.cust_id).or_default();
                    s.0 += o.amount;
                    s.1 += 1;
                }
            }
            let rows = spend
                .into_iter()
                .map(|(cust, (sum, n))| {
                    vec![Value::Int64(cust), Value::Float64(sum), Value::Int64(n)]
                })
                .collect();
            Expected::unordered(
                vec![("cust_id", Int64), ("spent", Float64), ("n", Int64)],
                rows,
            )
        }),
        alias_fault: false,
    }
}

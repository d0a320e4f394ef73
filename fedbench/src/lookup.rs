//! `lookup`: selective federated joins that the optimizer runs as
//! bind joins into each storage engine, over FedMart scale 4, one
//! client in a closed loop on `Federation::query_with`.

use crate::measure::Op;
use crate::reference::{Expected, Reference};
use crate::rng::{shuffle, Rng};
use gis::datagen::fedmart::FedMartSizes;
use gis::prelude::*;
use gis::types::DataType::{Float64, Int64, Utf8};
use rand::RngExt;

pub const SCALE: f64 = 4.0;

/// Customer keys per columnar lookup into `orders`, one query each per
/// round; the i-th starts in the i-th of equal strata of the customers
/// past [`ZIPF_HEAD`]. The six 64-key lookups (a sixth of each round)
/// are the slowest class and hold both tail percentiles. They take every
/// other stratum in every round, because a lookup's cost varies with
/// where its keys fall (about 37 to 74 ms for 64 keys at scale 4).
const ORDER_LOOKUP_KEYS: [i64; 12] = [64, 1, 64, 2, 64, 4, 64, 8, 64, 16, 64, 32];
/// Queries per round of each of the other three templates.
const POINT_QUERIES: usize = 8;
/// Customer ranges start past the Zipf head: FedMart's first 64
/// customers hold about two thirds of all orders, so a range there
/// returns tens of thousands of rows and the key count would no longer
/// set a lookup's cost.
const ZIPF_HEAD: i64 = 64;

/// One round: every template in its fixed proportion, shuffled.
pub fn round(rng: &mut Rng, sizes: &FedMartSizes) -> Vec<Op> {
    let widest = ORDER_LOOKUP_KEYS.iter().max().copied().unwrap_or(1);
    let width = (sizes.customers as i64 - ZIPF_HEAD - widest) / ORDER_LOOKUP_KEYS.len() as i64;
    let mut ops: Vec<Op> = (0..)
        .zip(ORDER_LOOKUP_KEYS)
        .map(|(stratum, k)| {
            let first = ZIPF_HEAD + stratum * width + rng.random_range(0..=width - 1);
            orders_of_customers(first, k)
        })
        .collect();
    for _ in 0..POINT_QUERIES {
        ops.push(products_of_orders(
            rng.random_range(0..=sizes.orders as i64 - 32),
        ));
        ops.push(stock_of_products(
            rng.random_range(0..=sizes.products as i64 - 16),
        ));
        ops.push(customers_of_product(
            rng.random_range(0..=sizes.products as i64 - 1),
        ));
    }
    shuffle(rng, &mut ops);
    ops
}

/// Row store → columnar `orders` by the unindexed `cust_id`.
fn orders_of_customers(first: i64, keys: i64) -> Op {
    let last = first + keys - 1;
    Op {
        template: "orders_of_customers",
        sql: format!(
            "SELECT c.id, c.name, o.order_id, o.amount \
             FROM customers c JOIN orders o ON c.id = o.cust_id \
             WHERE c.id BETWEEN {first} AND {last}"
        ),
        expected: Box::new(move |r: &Reference| {
            let mut rows = Vec::new();
            for id in first..=last {
                if let Some(c) = r.customer(id) {
                    for o in r.orders_of_customer(id) {
                        rows.push(vec![
                            Value::Int64(c.id),
                            Value::Utf8(c.name.clone()),
                            Value::Int64(o.order_id),
                            Value::Float64(o.amount),
                        ]);
                    }
                }
            }
            Expected::unordered(
                vec![
                    ("id", Int64),
                    ("name", Utf8),
                    ("order_id", Int64),
                    ("amount", Float64),
                ],
                rows,
            )
        }),
        alias_fault: false,
    }
}

/// Columnar → key-value `products` by key.
fn products_of_orders(first: i64) -> Op {
    let last = first + 31;
    Op {
        template: "products_of_orders",
        sql: format!(
            "SELECT o.order_id, p.pname, p.category \
             FROM orders o JOIN products p ON o.product_id = p.product_id \
             WHERE o.order_id BETWEEN {first} AND {last}"
        ),
        expected: Box::new(move |r: &Reference| {
            let rows = (first..=last)
                .filter_map(|id| {
                    let o = r.order(id)?;
                    let p = r.product(o.product_id)?;
                    Some(vec![
                        Value::Int64(o.order_id),
                        Value::Utf8(p.pname.clone()),
                        Value::Utf8(p.category.clone()),
                    ])
                })
                .collect();
            Expected::unordered(
                vec![("order_id", Int64), ("pname", Utf8), ("category", Utf8)],
                rows,
            )
        }),
        alias_fault: false,
    }
}

/// A key-range `BETWEEN` on key-value `products`, then `stock` by key.
fn stock_of_products(first: i64) -> Op {
    let last = first + 15;
    Op {
        template: "stock_of_products",
        sql: format!(
            "SELECT p.pname, s.warehouse, s.qty \
             FROM products p JOIN stock s ON p.product_id = s.product_id \
             WHERE p.product_id BETWEEN {first} AND {last}"
        ),
        expected: Box::new(move |r: &Reference| {
            let mut rows = Vec::new();
            for id in first..=last {
                if let Some(p) = r.product(id) {
                    for s in r.stock_of_product(id) {
                        rows.push(vec![
                            Value::Utf8(p.pname.clone()),
                            Value::Int64(s.warehouse),
                            Value::Int64(s.qty),
                        ]);
                    }
                }
            }
            Expected::unordered(
                vec![("pname", Utf8), ("warehouse", Int64), ("qty", Int64)],
                rows,
            )
        }),
        alias_fault: false,
    }
}

/// Columnar → row-store `customers` by primary key.
fn customers_of_product(product_id: i64) -> Op {
    Op {
        template: "customers_of_product",
        sql: format!(
            "SELECT o.order_id, o.amount, c.name, c.tier \
             FROM orders o JOIN customers c ON o.cust_id = c.id \
             WHERE o.product_id = {product_id}"
        ),
        expected: Box::new(move |r: &Reference| {
            let rows = r
                .orders_of_product(product_id)
                .filter_map(|o| {
                    let c = r.customer(o.cust_id)?;
                    Some(vec![
                        Value::Int64(o.order_id),
                        Value::Float64(o.amount),
                        Value::Utf8(c.name.clone()),
                        Value::Utf8(c.tier.clone()),
                    ])
                })
                .collect();
            Expected::unordered(
                vec![
                    ("order_id", Int64),
                    ("amount", Float64),
                    ("name", Utf8),
                    ("tier", Utf8),
                ],
                rows,
            )
        }),
        alias_fault: false,
    }
}

//! The independent answer oracle.
//!
//! At set-up the benchmark fetches every FedMart base table once with
//! a single-table `SELECT *` and copies the columns into plain structs.
//! Workloads compute each query's expected answer from those rows with
//! std collections, and [`check`] compares the engine's batch against
//! it: output column names and types, rows as a multiset (floats within
//! a 1e-9 relative tolerance), and for `ORDER BY ... LIMIT` the sort
//! keys position by position with ties resolved either way.

use gis::prelude::*;
use gis::types::{Array, DataType};
use std::cmp::Ordering;
use std::collections::HashMap;

const FLOAT_TOLERANCE: f64 = 1e-9;

#[derive(Debug, Clone)]
pub struct Customer {
    pub id: i64,
    pub name: String,
    pub region: String,
    pub tier: String,
    pub balance: f64,
}

#[derive(Debug, Clone)]
pub struct Order {
    pub order_id: i64,
    pub cust_id: i64,
    pub product_id: i64,
    pub order_day: i32,
    pub quantity: i64,
    pub amount: f64,
}

#[derive(Debug, Clone)]
pub struct Product {
    pub product_id: i64,
    pub pname: String,
    pub category: String,
    pub price: f64,
}

#[derive(Debug, Clone)]
pub struct Stock {
    pub product_id: i64,
    pub warehouse: i64,
    pub qty: i64,
}

/// The base tables as the federation serves them, with key indexes.
pub struct Reference {
    customers: Vec<Customer>,
    pub orders: Vec<Order>,
    products: Vec<Product>,
    stock: Vec<Stock>,
    customer_by_id: HashMap<i64, usize>,
    product_by_id: HashMap<i64, usize>,
    order_by_id: HashMap<i64, usize>,
    orders_by_product: HashMap<i64, Vec<usize>>,
    orders_by_customer: HashMap<i64, Vec<usize>>,
    stock_by_product: HashMap<i64, Vec<usize>>,
}

impl Reference {
    /// Fetches each base table with one single-table `SELECT *` and
    /// checks its row count against the generator's sizes.
    pub fn fetch(
        fed: &Federation,
        sizes: &gis::datagen::fedmart::FedMartSizes,
    ) -> Result<Reference> {
        let fetch = |table: &str, columns: &[&str], expected_rows: usize| -> Result<Batch> {
            let batch = fed.query(&format!("SELECT * FROM {table}"))?.batch;
            let names: Vec<&str> = batch
                .schema()
                .fields()
                .iter()
                .map(|f| f.name.as_str())
                .collect();
            if names != columns {
                return Err(GisError::Internal(format!(
                    "{table} columns {names:?}, expected {columns:?}"
                )));
            }
            if batch.num_rows() != expected_rows {
                return Err(GisError::Internal(format!(
                    "{table} has {} rows, FedMartConfig::sizes() says {expected_rows}",
                    batch.num_rows()
                )));
            }
            Ok(batch)
        };
        let b = fetch(
            "customers",
            &["id", "name", "region", "tier", "balance", "since"],
            sizes.customers,
        )?;
        let (id, name, region, tier, balance) = (
            ints(&b, 0)?,
            texts(&b, 1)?,
            texts(&b, 2)?,
            texts(&b, 3)?,
            floats(&b, 4)?,
        );
        let customers: Vec<Customer> = (0..b.num_rows())
            .map(|i| Customer {
                id: id[i],
                name: name[i].clone(),
                region: region[i].clone(),
                tier: tier[i].clone(),
                balance: balance[i],
            })
            .collect();
        let b = fetch(
            "orders",
            &[
                "order_id",
                "cust_id",
                "product_id",
                "order_day",
                "quantity",
                "amount",
            ],
            sizes.orders,
        )?;
        let (order_id, cust_id, product_id, order_day, quantity, amount) = (
            ints(&b, 0)?,
            ints(&b, 1)?,
            ints(&b, 2)?,
            dates(&b, 3)?,
            ints(&b, 4)?,
            floats(&b, 5)?,
        );
        let orders: Vec<Order> = (0..b.num_rows())
            .map(|i| Order {
                order_id: order_id[i],
                cust_id: cust_id[i],
                product_id: product_id[i],
                order_day: order_day[i],
                quantity: quantity[i],
                amount: amount[i],
            })
            .collect();
        let b = fetch(
            "products",
            &["product_id", "pname", "category", "price"],
            sizes.products,
        )?;
        let (product_id, pname, category, price) =
            (ints(&b, 0)?, texts(&b, 1)?, texts(&b, 2)?, floats(&b, 3)?);
        let products: Vec<Product> = (0..b.num_rows())
            .map(|i| Product {
                product_id: product_id[i],
                pname: pname[i].clone(),
                category: category[i].clone(),
                price: price[i],
            })
            .collect();
        let b = fetch(
            "stock",
            &["product_id", "warehouse", "qty"],
            sizes.products * sizes.warehouses,
        )?;
        let (product_id, warehouse, qty) = (ints(&b, 0)?, ints(&b, 1)?, ints(&b, 2)?);
        let stock: Vec<Stock> = (0..b.num_rows())
            .map(|i| Stock {
                product_id: product_id[i],
                warehouse: warehouse[i],
                qty: qty[i],
            })
            .collect();
        let index = |keys: Vec<i64>| keys.into_iter().enumerate().map(|(i, k)| (k, i)).collect();
        let group = |keys: Vec<i64>| {
            let mut m: HashMap<i64, Vec<usize>> = HashMap::new();
            for (i, k) in keys.into_iter().enumerate() {
                m.entry(k).or_default().push(i);
            }
            m
        };
        Ok(Reference {
            customer_by_id: index(customers.iter().map(|c| c.id).collect()),
            product_by_id: index(products.iter().map(|p| p.product_id).collect()),
            order_by_id: index(orders.iter().map(|o| o.order_id).collect()),
            orders_by_product: group(orders.iter().map(|o| o.product_id).collect()),
            orders_by_customer: group(orders.iter().map(|o| o.cust_id).collect()),
            stock_by_product: group(stock.iter().map(|s| s.product_id).collect()),
            customers,
            orders,
            products,
            stock,
        })
    }

    pub fn customer(&self, id: i64) -> Option<&Customer> {
        self.customer_by_id.get(&id).map(|&i| &self.customers[i])
    }

    pub fn product(&self, id: i64) -> Option<&Product> {
        self.product_by_id.get(&id).map(|&i| &self.products[i])
    }

    pub fn order(&self, id: i64) -> Option<&Order> {
        self.order_by_id.get(&id).map(|&i| &self.orders[i])
    }

    pub fn orders_of_product(&self, product_id: i64) -> impl Iterator<Item = &Order> {
        self.orders_by_product
            .get(&product_id)
            .into_iter()
            .flatten()
            .map(|&i| &self.orders[i])
    }

    pub fn orders_of_customer(&self, cust_id: i64) -> impl Iterator<Item = &Order> {
        self.orders_by_customer
            .get(&cust_id)
            .into_iter()
            .flatten()
            .map(|&i| &self.orders[i])
    }

    pub fn stock_of_product(&self, product_id: i64) -> impl Iterator<Item = &Stock> {
        self.stock_by_product
            .get(&product_id)
            .into_iter()
            .flatten()
            .map(|&i| &self.stock[i])
    }
}

fn bad(batch: &Batch, i: usize, want: &str) -> GisError {
    GisError::Internal(format!(
        "reference snapshot: column {} is {:?} with {} nulls, expected {want} without nulls",
        batch.schema().fields()[i].name,
        batch.column(i).data_type(),
        batch.column(i).null_count()
    ))
}

fn ints(batch: &Batch, i: usize) -> Result<&[i64]> {
    match batch.column(i) {
        Array::Int64(v, _) if batch.column(i).null_count() == 0 => Ok(v),
        _ => Err(bad(batch, i, "Int64")),
    }
}

fn floats(batch: &Batch, i: usize) -> Result<&[f64]> {
    match batch.column(i) {
        Array::Float64(v, _) if batch.column(i).null_count() == 0 => Ok(v),
        _ => Err(bad(batch, i, "Float64")),
    }
}

fn texts(batch: &Batch, i: usize) -> Result<&[String]> {
    match batch.column(i) {
        Array::Utf8(v, _) if batch.column(i).null_count() == 0 => Ok(v),
        _ => Err(bad(batch, i, "Utf8")),
    }
}

fn dates(batch: &Batch, i: usize) -> Result<&[i32]> {
    match batch.column(i) {
        Array::Date(v, _) if batch.column(i).null_count() == 0 => Ok(v),
        _ => Err(bad(batch, i, "Date")),
    }
}

/// How the rows of an answer are ordered.
#[derive(Debug, Clone, PartialEq)]
pub enum RowOrder {
    /// No `ORDER BY`: compare as a multiset.
    Any,
    /// `ORDER BY` over output columns `(index, descending)`, keeping
    /// the first `limit` rows (`None` = all). The expected rows are the
    /// whole candidate set; any of several tied rows may fill the last
    /// places.
    By {
        keys: Vec<(usize, bool)>,
        limit: Option<usize>,
    },
}

/// One query's expected answer.
#[derive(Debug, Clone)]
pub struct Expected {
    pub columns: Vec<(&'static str, DataType)>,
    pub rows: Vec<Vec<Value>>,
    pub order: RowOrder,
}

impl Expected {
    pub fn unordered(columns: Vec<(&'static str, DataType)>, rows: Vec<Vec<Value>>) -> Expected {
        Expected {
            columns,
            rows,
            order: RowOrder::Any,
        }
    }

    pub fn ordered(
        columns: Vec<(&'static str, DataType)>,
        mut rows: Vec<Vec<Value>>,
        keys: Vec<(usize, bool)>,
        limit: Option<usize>,
    ) -> Expected {
        rows.sort_by(|a, b| compare_keys(a, b, &keys));
        Expected {
            columns,
            rows,
            order: RowOrder::By { keys, limit },
        }
    }
}

fn compare_keys(a: &[Value], b: &[Value], keys: &[(usize, bool)]) -> Ordering {
    for &(i, desc) in keys {
        let o = total_cmp(&a[i], &b[i]);
        let o = if desc { o.reverse() } else { o };
        if o != Ordering::Equal {
            return o;
        }
    }
    Ordering::Equal
}

fn total_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => x.total_cmp(y),
        _ => a.partial_cmp(b).unwrap_or(Ordering::Equal),
    }
}

fn approx_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => {
            x == y || (x - y).abs() <= FLOAT_TOLERANCE * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

/// The exact (non-float) part of a row, used to bucket candidates.
fn exact_part(row: &[Value]) -> String {
    let mut key = String::new();
    for v in row {
        if !matches!(v, Value::Float64(_)) {
            key.push_str(&format!("{v:?}\u{1f}"));
        }
    }
    key
}

/// Removes one row matching `row` (exact on non-floats, within
/// tolerance on floats) from `pool`; false when none matches.
fn take_match(pool: &mut HashMap<String, Vec<Vec<Value>>>, row: &[Value]) -> bool {
    let Some(bucket) = pool.get_mut(&exact_part(row)) else {
        return false;
    };
    match bucket.iter().position(|cand| {
        cand.len() == row.len() && cand.iter().zip(row).all(|(a, b)| approx_eq(a, b))
    }) {
        Some(i) => {
            bucket.swap_remove(i);
            true
        }
        None => false,
    }
}

/// Checks `batch` against `expected`; the error names the first
/// difference found.
pub fn check(batch: &Batch, expected: &Expected) -> std::result::Result<(), String> {
    check_columns(batch, expected, true)?;
    check_rows(batch, expected)
}

/// Like [`check`], but output column names may differ: true when only
/// the names are wrong.
pub fn right_but_for_names(batch: &Batch, expected: &Expected) -> bool {
    check_columns(batch, expected, false).is_ok() && check_rows(batch, expected).is_ok()
}

fn check_columns(
    batch: &Batch,
    expected: &Expected,
    names: bool,
) -> std::result::Result<(), String> {
    let got: Vec<(String, DataType)> = batch
        .schema()
        .fields()
        .iter()
        .map(|f| (f.name.clone(), f.data_type))
        .collect();
    let want: Vec<(String, DataType)> = expected
        .columns
        .iter()
        .map(|&(n, t)| (n.to_string(), t))
        .collect();
    let same = if names {
        got == want
    } else {
        got.iter().map(|c| c.1).eq(want.iter().map(|c| c.1))
    };
    if !same {
        return Err(format!("output columns {got:?}, expected {want:?}"));
    }
    Ok(())
}

fn check_rows(batch: &Batch, expected: &Expected) -> std::result::Result<(), String> {
    let rows = batch.to_rows();
    let mut pool: HashMap<String, Vec<Vec<Value>>> = HashMap::new();
    for r in &expected.rows {
        pool.entry(exact_part(r)).or_default().push(r.clone());
    }
    let wanted = match &expected.order {
        RowOrder::Any => expected.rows.len(),
        RowOrder::By { limit, .. } => {
            limit.map_or(expected.rows.len(), |k| k.min(expected.rows.len()))
        }
    };
    if rows.len() != wanted {
        return Err(format!("{} rows, expected {wanted}", rows.len()));
    }
    if let RowOrder::By { keys, .. } = &expected.order {
        for (i, (got, want)) in rows.iter().zip(&expected.rows).enumerate() {
            if !keys.iter().all(|&(k, _)| approx_eq(&got[k], &want[k])) {
                return Err(format!(
                    "row {i} sorts as {got:?}, expected the keys of {want:?}"
                ));
            }
        }
    }
    for r in &rows {
        if !take_match(&mut pool, r) {
            return Err(format!("unexpected row {r:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis::types::{Field, Schema};

    fn batch(names: &[(&str, DataType)], rows: &[Vec<Value>]) -> Batch {
        let schema = Schema::new(names.iter().map(|&(n, t)| Field::new(n, t)).collect()).into_ref();
        Batch::from_rows(schema, rows).unwrap()
    }

    fn cols() -> Vec<(&'static str, DataType)> {
        vec![("region", DataType::Utf8), ("revenue", DataType::Float64)]
    }

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::Utf8("east".into()), Value::Float64(10.5)],
            vec![Value::Utf8("west".into()), Value::Float64(7.25)],
            vec![Value::Utf8("north".into()), Value::Float64(7.25)],
            vec![Value::Utf8("south".into()), Value::Float64(1.0)],
        ]
    }

    #[test]
    fn accepts_the_same_rows_in_any_order_within_tolerance() {
        let mut shuffled = rows();
        shuffled.reverse();
        shuffled[0][1] = Value::Float64(1.0 + 1e-12);
        let expected = Expected::unordered(cols(), rows());
        assert_eq!(check(&batch(&cols(), &shuffled), &expected), Ok(()));
    }

    #[test]
    fn rejects_a_perturbed_value() {
        let mut perturbed = rows();
        perturbed[1][1] = Value::Float64(7.25 * (1.0 + 1e-6));
        let expected = Expected::unordered(cols(), rows());
        assert!(check(&batch(&cols(), &perturbed), &expected).is_err());
    }

    #[test]
    fn rejects_a_renamed_column_and_a_retyped_one() {
        let expected = Expected::unordered(cols(), rows());
        let renamed = [("region", DataType::Utf8), ("sum(#11)", DataType::Float64)];
        let err = check(&batch(&renamed, &rows()), &expected).unwrap_err();
        assert!(err.contains("sum(#11)"), "{err}");
        let ints: Vec<Vec<Value>> = rows()
            .into_iter()
            .map(|r| vec![r[0].clone(), Value::Int64(1)])
            .collect();
        let retyped = [("region", DataType::Utf8), ("revenue", DataType::Int64)];
        assert!(check(&batch(&retyped, &ints), &expected).is_err());
    }

    #[test]
    fn names_alone_are_told_apart_from_wrong_answers() {
        let expected = Expected::unordered(cols(), rows());
        let renamed = [("region", DataType::Utf8), ("sum(#11)", DataType::Float64)];
        assert!(right_but_for_names(&batch(&renamed, &rows()), &expected));
        let mut perturbed = rows();
        perturbed[1][1] = Value::Float64(7.5);
        assert!(!right_but_for_names(
            &batch(&renamed, &perturbed),
            &expected
        ));
        assert!(!right_but_for_names(
            &batch(&renamed, &rows()[..3]),
            &expected
        ));
    }

    #[test]
    fn rejects_a_missing_row_and_a_duplicated_one() {
        let expected = Expected::unordered(cols(), rows());
        let missing = &rows()[..3];
        assert!(check(&batch(&cols(), missing), &expected).is_err());
        let mut duplicated = rows();
        duplicated[3] = duplicated[0].clone();
        assert!(check(&batch(&cols(), &duplicated), &expected).is_err());
    }

    #[test]
    fn top_k_accepts_either_tied_row_but_checks_sort_keys() {
        let expected = Expected::ordered(cols(), rows(), vec![(1, true)], Some(2));
        let all = rows();
        let west = batch(&cols(), &[all[0].clone(), all[1].clone()]);
        let north = batch(&cols(), &[all[0].clone(), all[2].clone()]);
        assert_eq!(check(&west, &expected), Ok(()));
        assert_eq!(check(&north, &expected), Ok(()));
        // Wrong order, a row past the cut, and too many rows all fail.
        let swapped = batch(&cols(), &[all[1].clone(), all[0].clone()]);
        assert!(check(&swapped, &expected).is_err());
        let past_cut = batch(&cols(), &[all[0].clone(), all[3].clone()]);
        assert!(check(&past_cut, &expected).is_err());
        let three = batch(&cols(), &all[..3]);
        assert!(check(&three, &expected).is_err());
    }
}

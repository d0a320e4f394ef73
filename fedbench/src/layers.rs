//! Attributes a traced query's span tree to the engine's layers.
//!
//! A span's self time is its wall time minus that of its children
//! (never below zero). [`LAYER_TABLE`] is the one place that maps span
//! labels to layers; a label no entry matches counts as
//! [`Layer::Unclassified`], so a renamed span degrades the breakdown
//! instead of breaking the benchmark.

use gis::observe::Span;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `core.exec.fragment_self_us`: mediator-side fragment glue
    /// (mapping, residual filter, projection of a fetched batch).
    Fragment,
    /// `core.exec.bindjoin_self_us`.
    BindJoin,
    /// `core.exec.hashjoin_self_us`.
    HashJoin,
    /// `core.exec.aggregate_self_us`: HashAggregate and Distinct.
    Aggregate,
    /// `core.exec.materialize_self_us`: Project, Filter, Sort, Limit,
    /// Union.
    Materialize,
    /// `net.recv_self_us`: request and frame encode, metered transfer
    /// and decode around a source call.
    Recv,
    /// `adapters.lookup_self_us`: source-side keyed lookups.
    Lookup,
    /// `adapters.scan_self_us`: source-side scans and Bloom filters.
    Scan,
    /// Zero-time annotation spans (`wire[...]`, `kernel[...]`, ...).
    Annotation,
    /// `observe.unclassified_self_us`.
    Unclassified,
}

const LAYER_COUNT: usize = Layer::Unclassified as usize + 1;

/// Span label prefix → layer. First match wins.
pub const LAYER_TABLE: &[(&str, Layer)] = &[
    ("Fragment[", Layer::Fragment),
    ("RemoteAggregate[", Layer::Fragment),
    ("RemoteJoin[", Layer::Fragment),
    ("BindJoin[", Layer::BindJoin),
    ("HashJoin[", Layer::HashJoin),
    ("HashAggregate:", Layer::Aggregate),
    ("Distinct", Layer::Aggregate),
    ("Project:", Layer::Materialize),
    ("Filter:", Layer::Materialize),
    ("Sort:", Layer::Materialize),
    ("Limit:", Layer::Materialize),
    ("UnionAll", Layer::Materialize),
    ("recv[", Layer::Recv),
    ("remote:lookup[", Layer::Lookup),
    ("remote:scan[", Layer::Scan),
    ("remote:filter[", Layer::Scan),
    ("wire[", Layer::Annotation),
    ("keyship[", Layer::Annotation),
    ("kernel[", Layer::Annotation),
    ("mem[", Layer::Annotation),
    ("spill[", Layer::Annotation),
    ("recv-overflow", Layer::Annotation),
];

pub fn classify(label: &str) -> Layer {
    LAYER_TABLE
        .iter()
        .find(|(prefix, _)| label.starts_with(prefix))
        .map_or(Layer::Unclassified, |&(_, layer)| layer)
}

/// One query's span tree, folded into per-layer totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    self_us: [u64; LAYER_COUNT],
    /// Rows entering operators that ran a hash kernel (the parents of
    /// `kernel[...]` spans).
    pub kernel_rows: u64,
    /// Rows fragments received from their sources.
    pub fragment_rows_in: u64,
    /// Rows fragments kept after their residual filters.
    pub fragment_rows_out: u64,
}

impl Breakdown {
    pub fn of(root: &Span) -> Breakdown {
        let mut b = Breakdown::default();
        b.add(root);
        b
    }

    fn add(&mut self, span: &Span) {
        let children: u64 = span.children.iter().map(|c| c.wall_us).sum();
        let layer = classify(&span.label);
        self.self_us[layer as usize] += span.wall_us.saturating_sub(children);
        if span.children.iter().any(|c| c.label.starts_with("kernel[")) {
            self.kernel_rows += span.rows_in;
        }
        if span.label.starts_with("Fragment[") {
            self.fragment_rows_in += span.rows_in;
            self.fragment_rows_out += span.rows_out;
        }
        for c in &span.children {
            self.add(c);
        }
    }

    pub fn self_us(&self, layer: Layer) -> u64 {
        self.self_us[layer as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(label: &str, wall_us: u64, children: Vec<Span>) -> Span {
        let mut s = Span::leaf(label).with_wall_us(wall_us);
        s.children = children;
        s
    }

    /// The shape `EXPLAIN ANALYZE` shows for a bind join under an
    /// aggregate, plus one label no table entry knows.
    fn tree() -> Span {
        span(
            "Project: #0, #1",
            1_000,
            vec![span(
                "HashAggregate: group=[#0] aggs=[sum(#1)]",
                950,
                vec![
                    span(
                        "BindJoin[semijoin→sales INNER JOIN]",
                        900,
                        vec![
                            span(
                                "Fragment[crm]",
                                100,
                                vec![span(
                                    "recv[crm]",
                                    80,
                                    vec![
                                        span("remote:scan[customers]", 50, vec![]),
                                        span("wire[codec=dict*1 raw=10 sent=5]", 0, vec![]),
                                    ],
                                )],
                            )
                            .with_rows_in(40)
                            .with_rows_out(10),
                            span("keyship[mode=keys n=10]", 0, vec![]),
                            span(
                                "recv[sales]",
                                700,
                                vec![span("remote:lookup[orders keys=10]", 650, vec![])],
                            ),
                            span("kernel[fixed]: partitions=1 build=1us probe=2us", 0, vec![]),
                        ],
                    )
                    .with_rows_in(110),
                    span(
                        "kernel[hashed]: partitions=1 build=1us probe=2us",
                        0,
                        vec![],
                    ),
                    span("someday[new-operator]", 30, vec![]),
                ],
            )
            .with_rows_in(100)],
        )
    }

    #[test]
    fn self_time_is_wall_minus_children() {
        let b = Breakdown::of(&tree());
        assert_eq!(b.self_us(Layer::Materialize), 50);
        assert_eq!(b.self_us(Layer::Aggregate), 950 - 900 - 30);
        assert_eq!(b.self_us(Layer::BindJoin), 900 - 100 - 700);
        assert_eq!(b.self_us(Layer::Fragment), 20);
        assert_eq!(b.self_us(Layer::Recv), (80 - 50) + (700 - 650));
        assert_eq!(b.self_us(Layer::Scan), 50);
        assert_eq!(b.self_us(Layer::Lookup), 650);
        assert_eq!(b.self_us(Layer::Annotation), 0);
        // Self times partition the root's wall time.
        let total: u64 = (0..LAYER_COUNT).map(|i| b.self_us[i]).sum();
        assert_eq!(total, 1_000);
    }

    #[test]
    fn unknown_labels_are_unclassified_not_errors() {
        let b = Breakdown::of(&tree());
        assert_eq!(b.self_us(Layer::Unclassified), 30);
        assert_eq!(classify("remote:agg[orders]"), Layer::Unclassified);
        assert_eq!(classify(""), Layer::Unclassified);
    }

    #[test]
    fn kernel_rows_and_fragment_rows() {
        let b = Breakdown::of(&tree());
        assert_eq!(b.kernel_rows, 110 + 100);
        assert_eq!((b.fragment_rows_in, b.fragment_rows_out), (40, 10));
    }

    #[test]
    fn children_longer_than_parent_clamp_to_zero() {
        let b = Breakdown::of(&span(
            "Sort: #0 ASC",
            10,
            vec![span("Fragment[x]", 25, vec![])],
        ));
        assert_eq!(b.self_us(Layer::Materialize), 0);
        assert_eq!(b.self_us(Layer::Fragment), 25);
    }
}

//! Rendering: the result line the driver reads, and the tables people do.

use crate::json::JsonWriter;
use crate::layers::Traced;
use crate::metrics::MetricSet;
use crate::protocol::Measured;
use crate::stats;
use crate::trace::LayerTable;
use sdnbuf_metrics::Table;

/// The one-line JSON result: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &MetricSet) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .key("correct")
        .bool(correct)
        .key("attempted")
        .u64(attempted)
        .key("failed")
        .u64(failed)
        .key("metrics")
        .begin_object();
    for (name, value, unit) in metrics.iter() {
        w.key(name)
            .begin_object()
            .key("value")
            .f64(value)
            .key("unit")
            .string(unit)
            .end_object();
    }
    w.end_object().end_object();
    w.finish()
}

/// A number with digits that suit its size.
pub fn human(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".to_owned()
    } else if a >= 1e6 || v.fract() == 0.0 && a >= 1.0 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else if a >= 1e-3 {
        format!("{v:.5}")
    } else {
        format!("{v:.3e}")
    }
}

/// Every metric of a set by name, with its unit.
pub fn metrics_table(metrics: &MetricSet) -> Table {
    let mut t = Table::new(vec!["metric", "value", "unit"]);
    for (name, value, unit) in metrics.iter() {
        t.row(vec![name.to_owned(), human(value), unit.to_owned()]);
    }
    t
}

/// The protocol's own figures: how many reps, how far apart.
pub fn protocol_summary(m: &Measured) -> String {
    let walls = m.rep_walls_s();
    format!(
        "{}: seed {}, {} timed reps; rep wall fastest-of-parts {:.4} s, median {:.4} s, \
         quartiles {:.4}/{:.4} s (IQR {:.1} %); {} packets, {} events per rep; \
         digest {:#018x}; {} checked operations, {} failed\nset-up samples (s per build): {}",
        m.workload.name(),
        m.seed,
        walls.len(),
        m.rep_wall_s(),
        stats::median(&walls),
        stats::quantile(&walls, 0.25),
        stats::quantile(&walls, 0.75),
        stats::iqr_pct(&walls),
        m.outcome.totals.packets,
        m.outcome.totals.events,
        m.outcome.digest,
        m.attempted,
        m.failed,
        m.setup_samples_s
            .iter()
            .map(|s| human(*s))
            .collect::<Vec<_>>()
            .join(" "),
    )
}

/// Every timed rep, part by part, in seconds — every sample the figures
/// above were taken from.
pub fn parts_table(m: &Measured) -> Table {
    let parts = m.part_walls_s.first().map_or(0, Vec::len);
    let mut headers = vec!["rep".to_owned()];
    headers.extend((0..parts).map(|j| format!("part {j}")));
    headers.push("rep wall s".to_owned());
    let mut t = Table::new(headers);
    let mut row = |label: String, parts: &[f64]| {
        let mut cells = vec![label];
        cells.extend(parts.iter().map(|w| format!("{w:.4}")));
        cells.push(format!("{:.4}", parts.iter().sum::<f64>()));
        t.row(cells);
    };
    for (i, rep) in m.part_walls_s.iter().enumerate() {
        row(i.to_string(), rep);
    }
    let fastest: Vec<f64> = (0..parts).map(|j| m.part_wall_s(j)).collect();
    row("fastest".to_owned(), &fastest);
    t
}

/// The layer table: operations, cost and share of the rep per layer.
pub fn layer_table(table: &LayerTable) -> Table {
    let mut t = Table::new(vec![
        "layer",
        "ops",
        "ns/op",
        "allocs/op",
        "share",
        "incl.share",
        "",
    ]);
    for row in &table.rows {
        let share = |s: f64| {
            if s == 0.0 {
                "-".to_owned()
            } else {
                format!("{:.4}", s / table.rep_wall_s)
            }
        };
        let note = match (row.faithful, row.in_rep) {
            (false, _) => "UNFAITHFUL, not summed",
            (true, false) => "outside the rep, not summed",
            (true, true) => "",
        };
        t.row(vec![
            row.layer.to_owned(),
            row.ops.to_string(),
            if row.self_s == 0.0 {
                "-".to_owned()
            } else {
                human(row.ns_per_op())
            },
            if row.ops == 0 || row.allocs == 0 {
                "-".to_owned()
            } else {
                format!("{:.3}", row.allocs as f64 / row.ops as f64)
            },
            share(row.self_s),
            share(row.inclusive_s),
            note.to_owned(),
        ]);
    }
    t
}

/// The line under the layer table: Σ shares, residual, and their sum.
pub fn sum_line(table: &LayerTable) -> String {
    let (explained, residual) = (table.explained_share(), table.residual_share());
    format!(
        "Σ share = {explained:.4} (calls timed under two layers counted once: −{:.4}), \
         core.testbed.residual_share = {residual:.4}, Σ + residual = {:.4}",
        table.nested_s / table.rep_wall_s,
        explained + residual,
    )
}

/// Per-cell shares side by side, for the cell workloads.
pub fn cell_shares(cells: &[(String, LayerTable)]) -> Table {
    let mut headers = vec!["layer share of its cell".to_owned()];
    headers.extend(cells.iter().map(|(name, _)| name.clone()));
    let mut t = Table::new(headers);
    let layers: Vec<&str> = cells
        .first()
        .map(|(_, table)| table.rows.iter().map(|r| r.layer).collect())
        .unwrap_or_default();
    for layer in layers {
        let mut cells_row = vec![layer.to_owned()];
        for (_, table) in cells {
            cells_row.push(match table.row(layer) {
                Some(r) if r.summed() => format!("{:.4}", table.share(r)),
                Some(r) => format!("({:.4})", table.share(r)),
                None => "-".to_owned(),
            });
        }
        t.row(cells_row);
    }
    let mut residual = vec!["residual".to_owned()];
    residual.extend(
        cells
            .iter()
            .map(|(_, t)| format!("{:.4}", t.residual_share())),
    );
    t.row(residual);
    t
}

/// Everything a traced pass found, as text.
pub fn traced_report(traced: &Traced) -> String {
    let mut out = String::new();
    out.push_str(&layer_table(&traced.table).to_text());
    out.push_str(&sum_line(&traced.table));
    out.push('\n');
    if !traced.cells.is_empty() {
        out.push('\n');
        out.push_str(&cell_shares(&traced.cells).to_text());
    }
    for complaint in &traced.complaints {
        out.push_str("SELF-CHECK FAILED: ");
        out.push_str(complaint);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = MetricSet::end_to_end();
        metrics.set("ns_per_packet", 1234.5678901234);
        let line = result_line(true, 10, 0, &metrics);
        assert!(!line.contains('\n'));
        let Value::Obj(members) = json::parse(&line).unwrap() else {
            panic!("an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let doc = Value::Obj(members);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(10.0));
        let Some(Value::Obj(listed)) = doc.get("metrics") else {
            panic!("metrics object");
        };
        assert_eq!(listed.len(), crate::metrics::END_TO_END.len());
        let ns = doc.get("metrics").unwrap().get("ns_per_packet").unwrap();
        assert_eq!(
            ns.get("value").and_then(Value::as_f64),
            Some(1234.5678901234)
        );
        assert_eq!(ns.get("unit").and_then(Value::as_str), Some("ns"));
    }

    #[test]
    fn human_numbers_keep_useful_digits() {
        assert_eq!(human(0.0), "0");
        assert_eq!(human(90_000.0), "90000");
        assert_eq!(human(212_290_218.4), "212290218");
        assert_eq!(human(3739.99), "3740.0");
        assert_eq!(human(9.4915), "9.492");
        assert_eq!(human(0.0262741), "0.02627");
        assert_eq!(human(1.07e-6), "1.070e-6");
    }
}

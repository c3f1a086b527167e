//! Printing: every metric by name with its unit, the per-layer span
//! table, and the one-line JSON result the contract asks for.

use std::fmt::Write as _;

use crate::spans::Recorder;
use crate::spec::{self, MetricDef};

/// Checks that `metrics` is exactly `table`: every metric of the table
/// once, and nothing else.
pub fn check_emitted<S: AsRef<str>>(
    metrics: &[(S, f64)],
    table: &[MetricDef],
) -> Result<(), String> {
    for def in table {
        let times = metrics
            .iter()
            .filter(|(n, _)| n.as_ref() == def.name)
            .count();
        if times != 1 {
            return Err(format!("metric {} emitted {times} times", def.name));
        }
    }
    match metrics
        .iter()
        .find(|(n, _)| !table.iter().any(|d| d.name == n.as_ref()))
    {
        Some((extra, _)) => Err(format!("metric {} is not in the contract", extra.as_ref())),
        None => Ok(()),
    }
}

/// Prints metrics one per line: name, value, unit.
pub fn print_metrics<S: AsRef<str>>(metrics: &[(S, f64)]) {
    for (name, value) in metrics {
        let name = name.as_ref();
        let unit = spec::find(name).map_or("?", |d| d.unit);
        println!("  {name:<40} {value:>16.4} {unit}");
    }
}

/// Prints each layer's span count, work items, total and self time.
pub fn print_layers(rec: &Recorder, cycles_per_ns: f64) {
    println!(
        "  {:<34} {:>6} {:>10} {:>12} {:>12}",
        "span", "count", "items", "total_ms", "self_ms"
    );
    for (name, t) in rec.layer_totals() {
        println!(
            "  {name:<34} {:>6} {:>10} {:>12.3} {:>12.3}",
            t.spans,
            t.items,
            t.cycles as f64 / cycles_per_ns / 1e6,
            t.self_cycles as f64 / cycles_per_ns / 1e6,
        );
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of `v`.
///
/// # Panics
/// Panics on a value JSON cannot carry (NaN or infinite): that is a bug
/// in the benchmark, not a result.
pub fn metrics_json<S: AsRef<str>>(metrics: &[(S, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let name = name.as_ref();
        assert!(value.is_finite(), "metric {name} is {value}");
        let unit = spec::find(name)
            .unwrap_or_else(|| panic!("metric {name} is not in the contract"))
            .unit;
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

/// The result line: exactly the keys `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json<S: AsRef<str>>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(S, f64)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use retina_telemetry::json::{parse, Json};

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_keeps_digits() {
        let line = result_json(
            true,
            1000,
            0,
            &[("ns_per_pkt", 346.062_518_9), ("setup_s", 0.5)],
        );
        let json = parse(&line).expect("valid JSON");
        let Json::Obj(members) = &json else { panic!() };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = json.get("metrics").unwrap().get("ns_per_pkt").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_num), Some(346.062_518_9));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ns"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn emitted_set_must_equal_the_table() {
        let table = spec::END_TO_END;
        let mut all: Vec<(&str, f64)> = table.iter().map(|d| (d.name, 1.0)).collect();
        assert!(check_emitted(&all, table).is_ok());
        all.push(("ns_per_pkt", 2.0));
        assert!(check_emitted(&all, table).unwrap_err().contains("2 times"));
        all.pop();
        all.push(("bogus", 2.0));
        assert!(check_emitted(&all, table).unwrap_err().contains("bogus"));
        all.truncate(2);
        assert!(check_emitted(&all, table).unwrap_err().contains("0 times"));
    }
}

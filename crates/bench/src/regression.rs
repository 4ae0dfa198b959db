//! Performance-regression gating over the `BENCH_PR*.json` artifacts.
//!
//! The engine-comparison binaries (`bench_pr1`, `bench_pr2`) emit one JSON
//! document each with a `results` array of per-graph rows containing
//! `speedup_*` ratios (new engine vs legacy). Absolute wall-clock numbers
//! are not portable across machines, but the *ratios* are: a fast engine
//! that is 4× the legacy engine on one box is close to 4× on another. The
//! CI `bench-smoke` job therefore regenerates the quick-mode JSONs and
//! runs [`compare`] against the committed baselines via the `bench_check`
//! binary, failing the build when any speedup ratio degrades by more than
//! a configurable threshold (default 20%).
//!
//! The parser below is a deliberately tiny extractor for exactly the flat
//! shape our own binaries emit (`"results": [{"key": value, ...}, ...]`,
//! no nested objects inside rows) — the workspace builds offline, so no
//! JSON dependency is available.

use std::collections::BTreeMap;

/// One row of a benchmark document: the graph label plus every numeric
/// field (including the `speedup_*` ratios the gate compares).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// The row's `graph` label (unique within one document).
    pub graph: String,
    /// Numeric fields by key, in key order.
    pub numbers: BTreeMap<String, f64>,
}

/// Minimum wall-clock (ms) any timed field of a row must reach, in both
/// documents, for its ratios to gate the build: sub-millisecond
/// measurements are noise-dominated across machines, so their rows are
/// reported but never fail the check.
pub const MIN_GATED_MS: f64 = 1.0;

/// Metrics whose value depends on how many cores the machine has (the
/// reader-scaling ratios of `bench_pr4`: on a 1-core container they
/// measure oversubscription overhead, on a 16-core box real
/// scalability). These gate only when the baseline and the fresh run
/// were measured on comparable machines — see [`cores_differ_materially`].
pub const SCALING_METRIC_PREFIXES: &[&str] = &["speedup_readers"];

/// Core-count ratio beyond which two machines stop being comparable for
/// [scaling metrics](SCALING_METRIC_PREFIXES).
pub const CORES_MATERIAL_RATIO: f64 = 1.5;

/// A parsed benchmark document: the `results` rows plus the recorded
/// machine core count (every bench binary writes a top-level `"cores"`
/// field; older committed baselines may lack it).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Top-level `"cores"` field, when present.
    pub cores: Option<f64>,
    /// The `results` rows.
    pub rows: Vec<BenchRow>,
}

/// Whether two recorded core counts differ enough that machine-scaling
/// ratios measured on them are not comparable. Unknown core counts (an
/// old baseline without the field) are treated as not comparable — a
/// scaling ratio should never fail the build on unverifiable grounds.
pub fn cores_differ_materially(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) if a > 0.0 && b > 0.0 => a.max(b) / a.min(b) >= CORES_MATERIAL_RATIO,
        _ => true,
    }
}

/// Outcome of one baseline-vs-fresh ratio comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Row label (`graph`).
    pub graph: String,
    /// The compared metric (a `speedup_*` key).
    pub metric: String,
    /// Baseline ratio.
    pub baseline: f64,
    /// Freshly measured ratio.
    pub fresh: f64,
    /// `fresh / baseline - 1`, negative when the fresh run is slower.
    pub delta: f64,
    /// Whether the degradation exceeds the threshold.
    pub regressed: bool,
    /// The row contains a timing below [`MIN_GATED_MS`]: too fast to
    /// measure reliably, so it can never regress the build.
    pub too_fast: bool,
    /// `Some(note)` when the metric is machine-scaling
    /// ([`SCALING_METRIC_PREFIXES`]) and the baseline was recorded on a
    /// materially different core count: reported as a soft warning,
    /// never gated. The note names the offending baseline document and
    /// both core counts so the table is actionable without re-opening
    /// the JSON files.
    pub machine_mismatch: Option<String>,
}

/// Extracts the `results` rows from a benchmark JSON document.
///
/// # Errors
///
/// Returns a message when the document has no parsable `results` array or
/// a row lacks a `graph` label.
pub fn parse_results(json: &str) -> Result<Vec<BenchRow>, String> {
    Ok(parse_document(json)?.rows)
}

/// Parses a whole benchmark document: document-level metadata (the
/// recorded `"cores"`) plus the `results` rows.
///
/// # Errors
///
/// Returns a message when the document has no parsable `results` array
/// or a row lacks a `graph` label.
pub fn parse_document(json: &str) -> Result<BenchDoc, String> {
    let start = json
        .find("\"results\"")
        .ok_or_else(|| "no \"results\" key in document".to_string())?;
    // Document-level numeric fields live before the results array.
    let cores = parse_meta_number(&json[..start], "cores");
    let body = &json[start..];
    let open = body
        .find('[')
        .ok_or_else(|| "no array after \"results\"".to_string())?;
    let close = body
        .find(']')
        .ok_or_else(|| "unterminated results array".to_string())?;
    let array = &body[open + 1..close];
    let mut rows = Vec::new();
    let mut rest = array;
    while let Some(obj_start) = rest.find('{') {
        let obj_end = rest[obj_start..]
            .find('}')
            .ok_or_else(|| "unterminated result object".to_string())?
            + obj_start;
        rows.push(parse_row(&rest[obj_start + 1..obj_end])?);
        rest = &rest[obj_end + 1..];
    }
    if rows.is_empty() {
        return Err("empty results array".to_string());
    }
    Ok(BenchDoc { cores, rows })
}

/// Extracts one document-level numeric field (`"key": 123`) from the
/// text before the results array.
fn parse_meta_number(head: &str, key: &str) -> Option<f64> {
    let quoted = format!("\"{key}\"");
    let at = head.find(&quoted)?;
    let after = &head[at + quoted.len()..];
    let value = after[after.find(':')? + 1..].trim_start();
    let end = value.find([',', '}', '\n']).unwrap_or(value.len());
    value[..end].trim().parse().ok()
}

/// Parses one flat `"key": value, ...` row body.
fn parse_row(body: &str) -> Result<BenchRow, String> {
    let mut graph = None;
    let mut numbers = BTreeMap::new();
    let mut rest = body;
    while let Some(q0) = rest.find('"') {
        let after_key = &rest[q0 + 1..];
        let q1 = after_key
            .find('"')
            .ok_or_else(|| "unterminated key".to_string())?;
        let key = &after_key[..q1];
        let after = &after_key[q1 + 1..];
        let colon = after
            .find(':')
            .ok_or_else(|| format!("no value for key {key:?}"))?;
        let value = after[colon + 1..].trim_start();
        if let Some(v) = value.strip_prefix('"') {
            let end = v
                .find('"')
                .ok_or_else(|| "unterminated string value".to_string())?;
            if key == "graph" {
                graph = Some(v[..end].to_string());
            }
            rest = &v[end + 1..];
        } else {
            let end = value
                .find([',', '}'])
                .unwrap_or(value.len())
                .min(value.len());
            let token = value[..end].trim();
            if let Ok(num) = token.parse::<f64>() {
                numbers.insert(key.to_string(), num);
            }
            // Booleans and anything else are ignored: the gate compares
            // ratios only.
            rest = &value[end..];
        }
    }
    Ok(BenchRow {
        graph: graph.ok_or_else(|| "row without a graph label".to_string())?,
        numbers,
    })
}

/// Compares every `speedup_*` ratio present in both documents, flagging
/// rows where the fresh ratio fell more than `threshold` (fractional,
/// e.g. `0.2` = 20%) below the baseline.
///
/// # Errors
///
/// Returns a message when the documents share no comparable ratios — a
/// silent pass on disjoint files would defeat the gate.
pub fn compare(
    baseline: &[BenchRow],
    fresh: &[BenchRow],
    threshold: f64,
) -> Result<Vec<Comparison>, String> {
    let mut out = Vec::new();
    for base_row in baseline {
        let Some(fresh_row) = fresh.iter().find(|r| r.graph == base_row.graph) else {
            return Err(format!(
                "graph {:?} present in baseline but missing from fresh results",
                base_row.graph
            ));
        };
        // A row whose fastest engine runs under MIN_GATED_MS (on either
        // machine) has noise-dominated ratios.
        let too_fast = [base_row, fresh_row].iter().any(|row| {
            row.numbers
                .iter()
                .any(|(k, &v)| k.ends_with("_ms") && !k.contains("build") && v < MIN_GATED_MS)
        });
        for (metric, &base_value) in &base_row.numbers {
            if !metric.starts_with("speedup") {
                continue;
            }
            let Some(&fresh_value) = fresh_row.numbers.get(metric) else {
                return Err(format!(
                    "metric {metric:?} of graph {:?} missing from fresh results",
                    base_row.graph
                ));
            };
            let delta = if base_value > 0.0 {
                fresh_value / base_value - 1.0
            } else {
                0.0
            };
            out.push(Comparison {
                graph: base_row.graph.clone(),
                metric: metric.clone(),
                baseline: base_value,
                fresh: fresh_value,
                delta,
                regressed: !too_fast && delta < -threshold,
                too_fast,
                machine_mismatch: None,
            });
        }
    }
    if out.is_empty() {
        return Err("no speedup ratios to compare".to_string());
    }
    Ok(out)
}

/// [`compare`], plus the machine-scaling rule: metrics named with the
/// [`SCALING_METRIC_PREFIXES`] gate only when the two documents were
/// recorded on comparable core counts ([`cores_differ_materially`]);
/// otherwise they are downgraded to soft warnings naming
/// `baseline_name` and both core counts. This keeps a
/// 1-core-container baseline (an oversubscription floor, as the PR 4
/// ROADMAP note records) from failing runs on real multi-core machines
/// — and vice versa.
///
/// # Errors
///
/// Propagates [`compare`]'s errors.
pub fn compare_docs(
    baseline: &BenchDoc,
    baseline_name: &str,
    fresh: &BenchDoc,
    threshold: f64,
) -> Result<Vec<Comparison>, String> {
    let mut out = compare(&baseline.rows, &fresh.rows, threshold)?;
    if cores_differ_materially(baseline.cores, fresh.cores) {
        let describe =
            |c: Option<f64>| c.map_or_else(|| "unrecorded".to_string(), |v| format!("{v:.0}"));
        let note = format!(
            "baseline {baseline_name} has cores {}, this machine has cores {}",
            describe(baseline.cores),
            describe(fresh.cores)
        );
        for c in &mut out {
            if SCALING_METRIC_PREFIXES
                .iter()
                .any(|p| c.metric.starts_with(p))
            {
                c.machine_mismatch = Some(note.clone());
                c.regressed = false;
            }
        }
    }
    Ok(out)
}

/// Renders the per-benchmark comparison table printed by `bench_check`.
pub fn render_table(label: &str, comparisons: &[Comparison], threshold: f64) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{label}: speedup ratios, fail below -{:.0}%",
        threshold * 100.0
    );
    let _ = writeln!(
        s,
        "  {:<28} {:<14} {:>9} {:>9} {:>8}  status",
        "graph", "metric", "baseline", "fresh", "delta"
    );
    for c in comparisons {
        let status = if c.regressed {
            "REGRESSED".to_string()
        } else if let Some(note) = &c.machine_mismatch {
            format!("warn (core counts differ: {note}; scaling not gated)")
        } else if c.too_fast {
            "ok (sub-ms, not gated)".to_string()
        } else {
            "ok".to_string()
        };
        let _ = writeln!(
            s,
            "  {:<28} {:<14} {:>8.2}x {:>8.2}x {:>+7.1}%  {status}",
            c.graph,
            c.metric,
            c.baseline,
            c.fresh,
            c.delta * 100.0,
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "bench": "BENCH_TEST",
  "quick_mode": true,
  "engines": ["legacy", "fast"],
  "results": [
    {"graph": "gnp_16", "nodes": 1000, "legacy_ms": 10.0, "speedup_seq": 4.000, "speedup_par": 6.500, "identical_output": true},
    {"graph": "worst_case", "nodes": 500, "legacy_ms": 8.0, "speedup_seq": 100.125, "speedup_par": 90.0, "identical_output": true}
  ]
}
"#;

    #[test]
    fn parses_rows_and_numbers() {
        let rows = parse_results(DOC).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].graph, "gnp_16");
        assert_eq!(rows[0].numbers["speedup_par"], 6.5);
        assert_eq!(rows[1].numbers["speedup_seq"], 100.125);
        // Booleans are not numbers.
        assert!(!rows[0].numbers.contains_key("identical_output"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_results("{}").is_err());
        assert!(parse_results("{\"results\": []}").is_err());
        assert!(parse_results("no json at all").is_err());
    }

    #[test]
    fn compare_passes_within_threshold() {
        let base = parse_results(DOC).unwrap();
        let mut fresh = base.clone();
        // 10% slower everywhere: within the default 20% budget.
        for row in &mut fresh {
            for v in row.numbers.values_mut() {
                *v *= 0.9;
            }
        }
        let cmp = compare(&base, &fresh, 0.2).unwrap();
        assert_eq!(cmp.len(), 4);
        assert!(cmp.iter().all(|c| !c.regressed));
    }

    #[test]
    fn compare_flags_regressions() {
        let base = parse_results(DOC).unwrap();
        let mut fresh = base.clone();
        *fresh[1].numbers.get_mut("speedup_seq").unwrap() = 50.0; // -50%
        let cmp = compare(&base, &fresh, 0.2).unwrap();
        let bad: Vec<_> = cmp.iter().filter(|c| c.regressed).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].graph, "worst_case");
        assert_eq!(bad[0].metric, "speedup_seq");
        assert!(bad[0].delta < -0.2);
    }

    #[test]
    fn compare_faster_is_never_a_regression() {
        let base = parse_results(DOC).unwrap();
        let mut fresh = base.clone();
        for row in &mut fresh {
            for v in row.numbers.values_mut() {
                *v *= 3.0;
            }
        }
        let cmp = compare(&base, &fresh, 0.2).unwrap();
        assert!(cmp.iter().all(|c| !c.regressed && c.delta > 0.0));
    }

    #[test]
    fn compare_rejects_disjoint_documents() {
        let base = parse_results(DOC).unwrap();
        let fresh = vec![BenchRow {
            graph: "other".into(),
            numbers: BTreeMap::new(),
        }];
        assert!(compare(&base, &fresh, 0.2).is_err());
        // Same graphs but no speedup metrics at all: also an error.
        let stripped: Vec<BenchRow> = base
            .iter()
            .map(|r| BenchRow {
                graph: r.graph.clone(),
                numbers: BTreeMap::new(),
            })
            .collect();
        assert!(compare(&stripped, &stripped, 0.2).is_err());
    }

    #[test]
    fn sub_millisecond_rows_never_gate() {
        let doc = DOC.replace(
            "\"legacy_ms\": 8.0",
            "\"legacy_ms\": 8.0, \"fast_ms\": 0.08",
        );
        let base = parse_results(&doc).unwrap();
        let mut fresh = base.clone();
        // A 60% ratio drop on the sub-millisecond row: reported, not gated.
        *fresh[1].numbers.get_mut("speedup_seq").unwrap() = 40.0;
        let cmp = compare(&base, &fresh, 0.2).unwrap();
        assert!(cmp.iter().all(|c| !c.regressed));
        assert!(cmp.iter().any(|c| c.too_fast));
        // The well-measured row still gates.
        let mut fresh = base.clone();
        *fresh[0].numbers.get_mut("speedup_par").unwrap() = 1.0;
        let cmp = compare(&base, &fresh, 0.2).unwrap();
        assert!(cmp.iter().any(|c| c.regressed));
    }

    const SCALING_DOC: &str = r#"{
  "bench": "BENCH_SCALE",
  "quick_mode": true,
  "cores": 1,
  "engines": ["svc"],
  "results": [
    {"graph": "serve/readers1", "elapsed_ms": 900.0, "qps": 100.0, "speedup_readers": 1.000},
    {"graph": "serve/readers8", "elapsed_ms": 900.0, "qps": 170.0, "speedup_readers": 1.700, "speedup_publish": 6.0}
  ]
}
"#;

    #[test]
    fn parse_document_reads_cores() {
        let doc = parse_document(SCALING_DOC).unwrap();
        assert_eq!(doc.cores, Some(1.0));
        assert_eq!(doc.rows.len(), 2);
        // A document without the field parses with cores = None.
        let old = parse_document(DOC).unwrap();
        assert_eq!(old.cores, None);
        assert_eq!(old.rows.len(), 2);
        // A "cores" key inside a *row* is not document metadata.
        let row_only = DOC.replace("\"nodes\": 1000", "\"cores\": 64, \"nodes\": 1000");
        assert_eq!(parse_document(&row_only).unwrap().cores, None);
    }

    #[test]
    fn core_material_difference_rule() {
        assert!(!cores_differ_materially(Some(8.0), Some(8.0)));
        assert!(!cores_differ_materially(Some(8.0), Some(6.0)));
        assert!(cores_differ_materially(Some(1.0), Some(8.0)));
        assert!(cores_differ_materially(Some(1.0), Some(2.0)));
        // Unknown on either side: never comparable, never gated.
        assert!(cores_differ_materially(None, Some(8.0)));
        assert!(cores_differ_materially(Some(8.0), None));
        assert!(cores_differ_materially(None, None));
    }

    #[test]
    fn scaling_metrics_soft_warn_across_core_counts() {
        // Baseline from a 1-core container, fresh run on an 8-core box
        // whose reader-scaling ratio *dropped* hard: the scaling metric
        // must warn instead of failing, while ordinary speedups on the
        // same rows still gate.
        let base = parse_document(SCALING_DOC).unwrap();
        let fresh_json = SCALING_DOC.replace("\"cores\": 1", "\"cores\": 8");
        let mut fresh = parse_document(&fresh_json).unwrap();
        *fresh.rows[1].numbers.get_mut("speedup_readers").unwrap() = 0.6; // -65%
        *fresh.rows[1].numbers.get_mut("speedup_publish").unwrap() = 2.0; // -67%
        let cmp = compare_docs(&base, "BENCH_SCALE.quick.json", &fresh, 0.2).unwrap();
        let readers = cmp
            .iter()
            .find(|c| c.graph == "serve/readers8" && c.metric == "speedup_readers")
            .unwrap();
        assert!(readers.machine_mismatch.is_some());
        assert!(
            !readers.regressed,
            "scaling row must not gate across machines"
        );
        let publish = cmp.iter().find(|c| c.metric == "speedup_publish").unwrap();
        assert!(
            publish.machine_mismatch.is_none(),
            "ordinary ratios still gate"
        );
        assert!(publish.regressed);
        // The rendered warning names the offending baseline document and
        // both core counts, so the table is actionable on its own.
        let table = render_table("BENCH_SCALE", &cmp, 0.2);
        assert!(table.contains("core counts differ"), "{table}");
        assert!(
            table.contains("baseline BENCH_SCALE.quick.json has cores 1, this machine has cores 8"),
            "{table}"
        );
    }

    #[test]
    fn mismatch_note_spells_out_an_unrecorded_baseline() {
        // An old baseline without the "cores" field: the warning must say
        // so rather than imply a numeric mismatch.
        let base = parse_document(DOC).unwrap();
        let fresh_rows = parse_document(DOC).unwrap().rows;
        let mut fresh = BenchDoc {
            cores: Some(8.0),
            rows: fresh_rows,
        };
        fresh.rows[0]
            .numbers
            .insert("speedup_readers".to_string(), 1.0);
        let mut base = base;
        base.rows[0]
            .numbers
            .insert("speedup_readers".to_string(), 2.0);
        let cmp = compare_docs(&base, "old_baseline.json", &fresh, 0.2).unwrap();
        let readers = cmp.iter().find(|c| c.metric == "speedup_readers").unwrap();
        let note = readers.machine_mismatch.as_deref().unwrap();
        assert!(
            note.contains("old_baseline.json has cores unrecorded"),
            "{note}"
        );
        assert!(note.contains("this machine has cores 8"), "{note}");
    }

    #[test]
    fn scaling_metrics_still_gate_on_comparable_machines() {
        let base = parse_document(SCALING_DOC).unwrap();
        let mut fresh = parse_document(SCALING_DOC).unwrap();
        *fresh.rows[1].numbers.get_mut("speedup_readers").unwrap() = 0.6;
        let cmp = compare_docs(&base, "BENCH_SCALE.quick.json", &fresh, 0.2).unwrap();
        let readers = cmp
            .iter()
            .find(|c| c.metric == "speedup_readers" && c.graph == "serve/readers8")
            .unwrap();
        assert!(readers.machine_mismatch.is_none());
        assert!(readers.regressed, "same core count: the ratio gates");
    }

    #[test]
    fn table_renders_all_rows() {
        let base = parse_results(DOC).unwrap();
        let cmp = compare(&base, &base, 0.2).unwrap();
        let table = render_table("BENCH_TEST", &cmp, 0.2);
        assert!(table.contains("gnp_16"));
        assert!(table.contains("worst_case"));
        assert!(table.contains("ok"));
        assert!(!table.contains("REGRESSED"));
    }
}

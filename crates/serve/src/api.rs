//! JSON views of the planning domain — the service's wire schema.
//!
//! Every conversion here is a pure, deterministic function of its
//! input, which is what makes the server's headline guarantee testable:
//! a plan rendered by the daemon is byte-identical to the same plan
//! rendered in-process from a [`vw_sdk::Planner`] report. The `vwsdk
//! sweep --format json` CLI path reuses these functions, so file output
//! and wire output agree byte-for-byte too.

use pim_arch::{presets, PimArray};
use pim_mapping::{MappingAlgorithm, MappingPlan};
use pim_report::fmt_f64;
use pim_report::json::JsonValue;
use vw_sdk::{EngineStats, LayerComparison, NetworkReport};

/// Parses an algorithm label (case-insensitive, as printed by
/// [`MappingAlgorithm::label`]).
///
/// # Errors
///
/// Returns the list of valid labels for unknown names.
pub fn algorithm_by_label(label: &str) -> Result<MappingAlgorithm, String> {
    MappingAlgorithm::all()
        .into_iter()
        .find(|a| a.label().eq_ignore_ascii_case(label))
        .ok_or_else(|| {
            let known: Vec<&str> = MappingAlgorithm::all().iter().map(|a| a.label()).collect();
            format!("unknown algorithm {label:?}; expected one of {known:?}")
        })
}

/// Parses the request's `"array"` member: either an `"RxC"` string or a
/// `{"rows": R, "cols": C}` object.
///
/// # Errors
///
/// Returns a message naming the malformed field.
pub fn array_from_json(value: &JsonValue) -> Result<PimArray, String> {
    match value {
        JsonValue::String(text) => presets::parse_array(text).map_err(|e| e.to_string()),
        JsonValue::Object(_) => {
            let rows = value
                .get("rows")
                .and_then(JsonValue::as_usize)
                .ok_or("array object needs integer \"rows\"")?;
            let cols = value
                .get("cols")
                .and_then(JsonValue::as_usize)
                .ok_or("array object needs integer \"cols\"")?;
            PimArray::new(rows, cols).map_err(|e| e.to_string())
        }
        _ => Err("\"array\" must be an \"RxC\" string or {\"rows\", \"cols\"}".to_string()),
    }
}

/// An `f64` rounded to two decimals, as a JSON number. Rendering
/// through [`fmt_f64`] keeps the API's numbers the same rounding the
/// text tables print.
fn rounded2(value: f64) -> JsonValue {
    JsonValue::Number(fmt_f64(value, 2).parse::<f64>().unwrap_or(value))
}

/// Speedup rounded to the paper's two decimals, as a JSON number.
fn speedup_number(ratio: f64) -> JsonValue {
    rounded2(ratio)
}

/// One mapping plan as JSON: window, tiling, cycle breakdown.
pub fn plan_json(plan: &MappingPlan) -> JsonValue {
    JsonValue::object([
        ("algorithm", JsonValue::from(plan.algorithm().label())),
        ("window", JsonValue::from(plan.window().to_string())),
        ("descriptor", JsonValue::from(plan.descriptor())),
        ("tiled_ic", plan.tiled_ic().into()),
        ("tiled_oc", plan.tiled_oc().into()),
        ("windows_in_pw", plan.windows_in_pw().into()),
        ("parallel_windows", plan.n_parallel_windows().into()),
        ("duplication", plan.duplication().into()),
        ("ar_cycles", plan.ar_cycles().into()),
        ("ac_cycles", plan.ac_cycles().into()),
        ("cycles", plan.cycles().into()),
    ])
}

/// One layer's comparison: the layer descriptor plus every plan.
pub fn layer_json(comparison: &LayerComparison) -> JsonValue {
    let layer = comparison.layer();
    JsonValue::object([
        ("layer", JsonValue::from(layer.name())),
        ("shape", JsonValue::from(layer.to_string())),
        (
            "plans",
            JsonValue::array(comparison.plans().iter().map(plan_json)),
        ),
    ])
}

/// Totals and cross-algorithm speedups of one report.
fn totals_json(report: &NetworkReport) -> (JsonValue, JsonValue) {
    let totals = JsonValue::Object(
        report
            .algorithms()
            .iter()
            .filter_map(|&alg| {
                report
                    .total_cycles(alg)
                    .map(|cycles| (alg.label().to_string(), cycles.into()))
            })
            .collect(),
    );
    let mut speedups = Vec::new();
    for &alg in report.algorithms() {
        for &baseline in report.algorithms() {
            if alg == baseline {
                continue;
            }
            if let Some(ratio) = report.speedup(alg, baseline) {
                speedups.push(JsonValue::object([
                    ("algorithm", JsonValue::from(alg.label())),
                    ("baseline", JsonValue::from(baseline.label())),
                    ("speedup", speedup_number(ratio)),
                ]));
            }
        }
    }
    (totals, JsonValue::Array(speedups))
}

/// A full network report: identity, per-layer plans, totals, speedups.
/// This is the payload `POST /v1/plan` answers with.
pub fn report_json(report: &NetworkReport) -> JsonValue {
    let (totals, speedups) = totals_json(report);
    JsonValue::object([
        ("network", JsonValue::from(report.network_name())),
        ("array", JsonValue::from(report.array().to_string())),
        (
            "layers",
            JsonValue::array(report.layers().iter().map(layer_json)),
        ),
        ("totals", totals),
        ("speedups", speedups),
    ])
}

/// A condensed report — identity, totals, speedups, no per-layer detail.
/// `POST /v1/sweep` and `vwsdk sweep --format json` emit lists of these.
pub fn report_summary_json(report: &NetworkReport) -> JsonValue {
    let (totals, speedups) = totals_json(report);
    JsonValue::object([
        ("network", JsonValue::from(report.network_name())),
        ("array", JsonValue::from(report.array().to_string())),
        ("totals", totals),
        ("speedups", speedups),
    ])
}

/// The sweep schema — `{"reports": [summary...], "cache": {...}}` —
/// shared by `POST /v1/sweep` and `vwsdk sweep --format json`, so the
/// wire format and the CLI's file format cannot drift apart. Each
/// report summary additionally carries a `"search"` array with the
/// per-layer candidate counts (`evaluated`/`pruned`) the engine's
/// memoized window searches spent on that report's own algorithms, so
/// sweep output explains its own planning cost whatever else the
/// engine has planned.
pub fn sweep_json(
    reports: &[NetworkReport],
    stats: &EngineStats,
    engine: &vw_sdk::PlanningEngine,
) -> JsonValue {
    JsonValue::object([
        (
            "reports",
            JsonValue::array(reports.iter().map(|report| {
                let mut summary = report_summary_json(report);
                if let JsonValue::Object(members) = &mut summary {
                    members.push((
                        "search".to_string(),
                        JsonValue::array(report.layers().iter().map(|cmp| {
                            let (evaluated, pruned) = engine.search_effort(
                                cmp.layer(),
                                report.array(),
                                report.algorithms(),
                            );
                            JsonValue::object([
                                ("layer", JsonValue::from(cmp.layer().name())),
                                ("evaluated", evaluated.into()),
                                ("pruned", pruned.into()),
                            ])
                        })),
                    ));
                }
                summary
            })),
        ),
        ("cache", stats_json(stats)),
    ])
}

/// One deployment stage as JSON.
fn stage_json(stage: &pim_chip::report::StageReport) -> JsonValue {
    JsonValue::object([
        ("layer", JsonValue::from(stage.layer.as_str())),
        ("algorithm", JsonValue::from(stage.algorithm.label())),
        ("descriptor", JsonValue::from(stage.descriptor.as_str())),
        ("tiles", stage.tiles.into()),
        ("arrays", stage.arrays.into()),
        ("resident", stage.resident.into()),
        ("stage_cycles", stage.stage_cycles.into()),
        ("compute_cycles", stage.compute_cycles.into()),
        ("energy_pj", rounded2(stage.energy_pj)),
    ])
}

/// A chip deployment report as JSON — the payload `POST /v1/deploy`
/// answers with, and exactly what `vwsdk deploy --format json` prints
/// (the acceptance tests assert the two are identical).
pub fn deployment_json(report: &pim_chip::report::DeploymentReport) -> JsonValue {
    JsonValue::object([
        ("network", JsonValue::from(report.network())),
        (
            "chip",
            JsonValue::object([
                ("arrays", report.n_arrays().into()),
                ("array", JsonValue::from(report.array())),
                ("reprogram_cycles", report.reprogram_cycles().into()),
            ]),
        ),
        (
            "layers",
            JsonValue::array(report.stages().iter().map(stage_json)),
        ),
        ("arrays_used", report.arrays_used().into()),
        ("tiles_demanded", report.tiles_demanded().into()),
        ("fully_resident", report.fully_resident().into()),
        (
            "bottleneck",
            JsonValue::object([
                ("cycles", report.bottleneck_cycles().into()),
                (
                    "stage",
                    report
                        .bottleneck_stage()
                        .map_or(JsonValue::Null, JsonValue::from),
                ),
            ]),
        ),
        ("latency_cycles", report.latency_cycles().into()),
        ("throughput_ips", rounded2(report.throughput_ips())),
        (
            "energy_per_image_pj",
            rounded2(report.energy_per_image_pj()),
        ),
    ])
}

/// One executed simulation stage as JSON.
fn stage_execution_json(stage: &pim_sim::StageExecution) -> JsonValue {
    JsonValue::object([
        ("layer", JsonValue::from(stage.layer.as_str())),
        ("algorithm", JsonValue::from(stage.algorithm.label())),
        ("descriptor", JsonValue::from(stage.descriptor.as_str())),
        ("predicted_cycles", stage.predicted_cycles.into()),
        ("executed_cycles", stage.executed_cycles.into()),
        ("macs", stage.macs.into()),
        ("adc_conversions", stage.adc_conversions.into()),
        ("dac_conversions", stage.dac_conversions.into()),
        ("array_programmings", stage.array_programmings.into()),
        ("energy_pj", rounded2(stage.energy_pj)),
    ])
}

/// A network-scale simulation report as JSON — the payload
/// `POST /v1/simulate` answers with, and exactly what
/// `vwsdk simulate --format json` prints (the acceptance tests assert
/// the two are byte-identical).
pub fn simulation_json(report: &pim_sim::SimulationReport) -> JsonValue {
    JsonValue::object([
        ("network", JsonValue::from(report.network.as_str())),
        ("array", JsonValue::from(report.array.as_str())),
        ("seed", report.seed.into()),
        ("mode", JsonValue::from(report.mode.label())),
        ("batch", JsonValue::from(report.batch as u64)),
        (
            "stages",
            JsonValue::array(report.stages.iter().map(stage_execution_json)),
        ),
        ("elements", report.elements.into()),
        ("mismatches", report.mismatches.into()),
        ("bit_exact", report.matches().into()),
        ("cycles_match", report.cycles_match().into()),
        ("executed_cycles", report.executed_cycles().into()),
        ("predicted_cycles", report.predicted_cycles().into()),
        ("macs", report.total_macs().into()),
        ("energy_pj", rounded2(report.total_energy_pj())),
    ])
}

/// Cache counters as JSON (the service's cache-hit stats).
pub fn stats_json(stats: &EngineStats) -> JsonValue {
    JsonValue::object([
        ("search_hits", stats.search_hits.into()),
        ("search_misses", stats.search_misses.into()),
        ("search_entries", stats.search_entries.into()),
    ])
}

/// One metric's sorted label pairs as a JSON object.
fn labels_json(labels: &[(String, String)]) -> JsonValue {
    JsonValue::object(
        labels
            .iter()
            .map(|(k, v)| (k.as_str(), JsonValue::from(v.as_str()))),
    )
}

/// The process-wide telemetry registry as JSON. This one function is
/// both the `GET /v1/metrics?format=json` answer and what
/// `vwsdk --metrics-dump` prints, so the CLI dump's schema is
/// byte-identical to the wire by construction.
///
/// Histograms carry their cumulative buckets plus interpolated
/// p50/p90/p99 estimates, so latency percentiles are readable without
/// a scraper.
pub fn metrics_json() -> JsonValue {
    let registry = pim_telemetry::global();
    let snapshot = registry.snapshot();
    JsonValue::object([
        (
            "counters",
            JsonValue::array(snapshot.counters.iter().map(|c| {
                JsonValue::object([
                    ("name", JsonValue::from(c.name.as_str())),
                    ("labels", labels_json(&c.labels)),
                    ("value", c.value.into()),
                ])
            })),
        ),
        (
            "gauges",
            JsonValue::array(snapshot.gauges.iter().map(|g| {
                JsonValue::object([
                    ("name", JsonValue::from(g.name.as_str())),
                    ("labels", labels_json(&g.labels)),
                    ("value", JsonValue::Number(g.value)),
                ])
            })),
        ),
        (
            "histograms",
            JsonValue::array(snapshot.histograms.iter().map(|h| {
                let mut cumulative = 0u64;
                let mut buckets: Vec<JsonValue> = h
                    .bounds
                    .iter()
                    .zip(&h.counts)
                    .map(|(bound, in_bucket)| {
                        cumulative += in_bucket;
                        JsonValue::object([
                            ("le", JsonValue::Number(*bound)),
                            ("count", cumulative.into()),
                        ])
                    })
                    .collect();
                let overflow = h.counts.last().copied().unwrap_or(0);
                buckets.push(JsonValue::object([
                    ("le", JsonValue::from("+Inf")),
                    ("count", (cumulative + overflow).into()),
                ]));
                JsonValue::object([
                    ("name", JsonValue::from(h.name.as_str())),
                    ("labels", labels_json(&h.labels)),
                    ("count", h.count.into()),
                    ("sum", JsonValue::Number(h.sum)),
                    ("p50", JsonValue::Number(h.quantile(0.50))),
                    ("p90", JsonValue::Number(h.quantile(0.90))),
                    ("p99", JsonValue::Number(h.quantile(0.99))),
                    ("buckets", JsonValue::array(buckets)),
                ])
            })),
        ),
    ])
}

/// The uniform error body: `{"error": {"status": S, "message": M}}`.
pub fn error_json(status: u16, message: &str) -> JsonValue {
    JsonValue::object([(
        "error",
        JsonValue::object([
            ("status", JsonValue::from(u64::from(status))),
            ("message", JsonValue::from(message)),
        ]),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_nets::zoo;
    use vw_sdk::Planner;

    fn arr(r: usize, c: usize) -> PimArray {
        PimArray::new(r, c).unwrap()
    }

    #[test]
    fn algorithm_labels_round_trip() {
        for alg in MappingAlgorithm::all() {
            assert_eq!(algorithm_by_label(alg.label()).unwrap(), alg);
        }
        assert_eq!(
            algorithm_by_label("VW-SDK").unwrap(),
            MappingAlgorithm::VwSdk
        );
        assert!(algorithm_by_label("bogus").unwrap_err().contains("im2col"));
    }

    #[test]
    fn arrays_parse_from_both_forms() {
        let s = array_from_json(&JsonValue::from("512x256")).unwrap();
        assert_eq!((s.rows(), s.cols()), (512, 256));
        let o = array_from_json(&JsonValue::object([
            ("rows", 128usize.into()),
            ("cols", 256usize.into()),
        ]))
        .unwrap();
        assert_eq!((o.rows(), o.cols()), (128, 256));
        assert!(array_from_json(&JsonValue::from("roxc")).is_err());
        assert!(array_from_json(&JsonValue::Number(5.0)).is_err());
        assert!(array_from_json(&JsonValue::object([("rows", 5usize.into())])).is_err());
    }

    #[test]
    fn report_json_carries_table1_facts() {
        let report = Planner::new(arr(512, 512))
            .plan_network(&zoo::resnet18_table1())
            .unwrap();
        let json = report_json(&report);
        assert_eq!(
            json.get("network").and_then(JsonValue::as_str),
            Some("ResNet-18")
        );
        assert_eq!(
            json.get("totals")
                .and_then(|t| t.get("VW-SDK"))
                .and_then(JsonValue::as_u64),
            Some(4294)
        );
        let speedups = json.get("speedups").and_then(JsonValue::as_array).unwrap();
        let headline = speedups
            .iter()
            .find(|s| {
                s.get("algorithm").and_then(JsonValue::as_str) == Some("VW-SDK")
                    && s.get("baseline").and_then(JsonValue::as_str) == Some("im2col")
            })
            .unwrap();
        assert_eq!(
            headline.get("speedup").and_then(JsonValue::as_f64),
            Some(4.67)
        );
        // conv4 appears with the paper's 4x3x42x256 descriptor.
        assert!(json.render().contains("4x3x42x256"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let report = Planner::new(arr(256, 256))
            .plan_network(&zoo::tiny())
            .unwrap();
        assert_eq!(report_json(&report).render(), report_json(&report).render());
        assert_eq!(
            report_summary_json(&report).render(),
            report_summary_json(&report).render()
        );
    }

    #[test]
    fn summary_drops_layers_but_keeps_totals() {
        let report = Planner::new(arr(256, 256))
            .plan_network(&zoo::tiny())
            .unwrap();
        let summary = report_summary_json(&report);
        assert!(summary.get("layers").is_none());
        assert!(summary.get("totals").is_some());
    }

    #[test]
    fn deployment_json_carries_chip_and_stage_facts() {
        use pim_chip::report::DeploymentReport;
        use pim_chip::{optimize, ChipConfig};
        let chip = ChipConfig::new(32, arr(512, 512), 2_000).expect("valid chip");
        let deployment = optimize::deploy_mixed(
            &zoo::resnet18_table1(),
            &MappingAlgorithm::paper_trio(),
            &chip,
        )
        .expect("deployable");
        let report = DeploymentReport::with_defaults("ResNet-18", &deployment);
        let json = deployment_json(&report);
        assert_eq!(
            json.get("network").and_then(JsonValue::as_str),
            Some("ResNet-18")
        );
        assert_eq!(
            json.get("chip")
                .and_then(|c| c.get("arrays"))
                .and_then(JsonValue::as_u64),
            Some(32)
        );
        let layers = json.get("layers").and_then(JsonValue::as_array).unwrap();
        assert_eq!(layers.len(), 5);
        assert!(layers[0]
            .get("algorithm")
            .and_then(JsonValue::as_str)
            .is_some());
        assert!(json
            .get("bottleneck")
            .and_then(|b| b.get("cycles"))
            .is_some());
        // Deterministic rendering.
        assert_eq!(json.render(), deployment_json(&report).render());
    }

    #[test]
    fn error_body_is_structured() {
        let e = error_json(404, "no such route");
        assert_eq!(
            e.render(),
            r#"{"error":{"status":404,"message":"no such route"}}"#
        );
    }
}

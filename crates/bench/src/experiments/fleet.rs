//! Figures 19, 21, 22, 23: constellation-architecture analyses.

use sudc_core::analysis::fleet;
use sudc_sscm::LearningCurve;
use sudc_units::Watts;

use crate::format::{ratio, table};

/// Fig. 19: relative TCO vs. edge filtering rate (4 kW baseline).
#[must_use]
pub fn fig19() -> String {
    let rates = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 2.0 / 3.0, 0.8, 0.9];
    let curve =
        fleet::collaborative_tco(Watts::from_kilowatts(4.0), &rates).expect("4 kW design is valid");
    let rows: Vec<Vec<String>> = curve
        .iter()
        .map(|&(f, tco)| vec![format!("{f:.2}"), ratio(tco)])
        .collect();
    format!(
        "Fig. 19: relative TCO vs edge filtering rate (4 kW baseline)\n{}",
        table(&["filtering rate", "relative TCO"], &rows)
    )
}

/// Fig. 21: collaborative-constellation benefit per payload architecture,
/// using the Fig. 17 DSE outcomes as efficiency factors (the process-wide
/// sweep `fig17` shares).
#[must_use]
pub fn fig21() -> String {
    let outcome = sudc_accel::dse::full_dse();
    use sudc_accel::dse::SystemArchitecture as Sa;
    let archs = [
        ("Commodity GPU", 1.0),
        (
            "Global accelerator",
            outcome.mean_improvement(Sa::GlobalAccelerator),
        ),
        (
            "Per-layer accelerator",
            outcome.mean_improvement(Sa::PerLayerAccelerator),
        ),
    ];
    let rows: Vec<Vec<String>> =
        fleet::collaborative_sensitivity(Watts::from_kilowatts(4.0), &archs)
            .expect("4 kW design is valid")
            .into_iter()
            .map(|r| {
                vec![
                    r.architecture.clone(),
                    format!("{:.1}x", r.efficiency_factor),
                    ratio(r.unfiltered_tco),
                    ratio(r.filtered_tco),
                    format!("{:.2}x", r.improvement()),
                ]
            })
            .collect();
    format!(
        "Fig. 21: collaborative constellation benefit (cloud filtering, 4 kW)\n{}",
        table(
            &[
                "architecture",
                "efficiency",
                "TCO (f=0)",
                "TCO (f=2/3)",
                "improvement"
            ],
            &rows
        )
    )
}

/// Fig. 22: Wright's-law marginal satellite cost (b = 0.75).
#[must_use]
pub fn fig22() -> String {
    let units = [1, 2, 5, 10, 20, 50, 100];
    let series = fleet::marginal_cost_curve(
        &[
            Watts::new(500.0),
            Watts::from_kilowatts(4.0),
            Watts::from_kilowatts(10.0),
        ],
        &units,
        LearningCurve::aerospace_default(),
    )
    .expect("sweep is valid");
    let rows: Vec<Vec<String>> = units
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let mut row = vec![format!("{n}")];
            for s in &series {
                row.push(format!("{:.1}", s.points[i].1));
            }
            row
        })
        .collect();
    format!(
        "Fig. 22: marginal satellite cost ($M) vs cumulative units (b = 0.75)\n{}",
        table(&["unit #", "500 W", "4 kW", "10 kW"], &rows)
    )
}

/// Fig. 23: distributed vs. monolithic fleet TCO at a fixed 32 kW target.
#[must_use]
pub fn fig23() -> String {
    let ks = [1, 2, 3, 4, 6, 8, 12, 16];
    let ratios = [0.65, 0.70, 0.75, 0.80, 0.85];
    let series =
        fleet::distributed_tco(Watts::from_kilowatts(32.0), &ks, &ratios).expect("sweep is valid");
    let mut headers = vec!["# SuDCs".to_string()];
    for s in &series {
        headers.push(format!("b={}", s.progress_ratio));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows: Vec<Vec<String>> = ks
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let mut row = vec![format!("{k}")];
            for s in &series {
                row.push(ratio(s.points[i].1));
            }
            row
        })
        .collect();
    let mut optimal = vec!["OPTIMAL".to_string()];
    for s in &series {
        optimal.push(format!("{}", s.optimal_satellites));
    }
    rows.push(optimal);
    format!(
        "Fig. 23: fleet TCO vs # of SuDCs at 32 kW target (relative to monolith)\n{}",
        table(&header_refs, &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig19_is_monotone_decreasing() {
        let f = fig19();
        assert!(f.contains("0.67"));
    }

    #[test]
    fn fig21_reports_improvements() {
        let f = fig21();
        assert!(f.contains("Commodity GPU"));
        assert!(f.contains('x'));
    }

    #[test]
    fn fig22_covers_100_units() {
        assert!(fig22().lines().any(|l| l.trim_start().starts_with("100")));
    }

    #[test]
    fn fig23_reports_optima() {
        let f = fig23();
        assert!(f.contains("OPTIMAL"));
        assert!(f.contains("b=0.65") && f.contains("b=0.85"));
    }
}

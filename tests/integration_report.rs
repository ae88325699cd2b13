//! The paper's concentration claim, read from the committed `REPORT.json`:
//! the empirical distance to the nearest exact equilibrium shrinks as the
//! population grows. CI `cmp`s the committed file against a fresh
//! `popgame reproduce --full`, so these assertions hold for what the
//! current code produces.

use popgame_util::json::Json;

/// The replica-mean TV distances of one convergence row, one per size.
fn mean_tvs(report: &Json, scenario: &str, dynamics: &str) -> Vec<f64> {
    let row = report
        .get("convergence")
        .and_then(Json::as_array)
        .expect("convergence rows")
        .iter()
        .find(|row| {
            row.get("scenario").and_then(Json::as_str) == Some(scenario)
                && row.get("dynamics").and_then(Json::as_str) == Some(dynamics)
        })
        .unwrap_or_else(|| panic!("no {scenario}/{dynamics} row"));
    row.get("cells")
        .and_then(Json::as_array)
        .expect("cells")
        .iter()
        .map(|cell| cell.get("mean_tv").and_then(Json::as_f64).expect("mean_tv"))
        .collect()
}

#[test]
fn committed_report_distance_decreases_with_population_size() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/REPORT.json");
    let report = Json::parse(&std::fs::read_to_string(path).expect("committed REPORT.json"))
        .expect("REPORT.json parses");
    // Interior equilibria: fluctuation-dominated, so the distance curve
    // never rises with n and ends below about half its first value.
    for (scenario, dynamics) in [
        ("hawk-dove", "best-response"),
        ("rock-paper-scissors", "best-response"),
        ("rock-paper-scissors", "logit"),
    ] {
        let tvs = mean_tvs(&report, scenario, dynamics);
        assert!(tvs.len() >= 2, "{scenario}/{dynamics}: {tvs:?}");
        assert!(
            tvs.windows(2).all(|w| w[1] <= w[0] + 1e-12),
            "{scenario}/{dynamics} rises with n: {tvs:?}"
        );
        assert!(
            tvs[tvs.len() - 1] < tvs[0] * 0.51,
            "{scenario}/{dynamics} shrinks too little: {tvs:?}"
        );
    }
    // Absorbing dynamics reach their pure equilibrium outright.
    for (scenario, dynamics) in [
        ("prisoners-dilemma", "best-response"),
        ("prisoners-dilemma", "imitation"),
        ("stag-hunt", "imitation"),
    ] {
        let tvs = mean_tvs(&report, scenario, dynamics);
        let last = tvs[tvs.len() - 1];
        assert!(last < 1e-3, "{scenario}/{dynamics} final distance {last}");
    }
}

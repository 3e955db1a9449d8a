//! Table 1: baseline (cheapest-spot) regions per instance type.

use cloud_market::{cheapest_spot_region_at_start, InstanceType};

use crate::Figure;

/// Table 1.
pub fn table1_baseline_regions() -> Figure {
    let mut fig = Figure::new(
        "Table 1 — baseline regions for various spot instance types",
        "paper §5.2.2, Table 1",
    );
    let paper: [(InstanceType, &str); 5] = [
        (InstanceType::M5Large, "us-west-2"),
        (InstanceType::M5Xlarge, "ca-central-1"),
        (InstanceType::M52xlarge, "ap-northeast-3"),
        (InstanceType::R52xlarge, "ca-central-1"),
        (InstanceType::C52xlarge, "eu-north-1"),
    ];
    let mut mismatches = 0;
    for (itype, expected) in paper {
        let measured = cheapest_spot_region_at_start(itype);
        fig.paper_vs_measured(itype.name(), expected, measured.name());
        if measured.name() != expected {
            mismatches += 1;
        }
    }
    fig.line(format_args!(
        "\nresult: {}",
        if mismatches == 0 {
            "all baseline regions match the paper".to_owned()
        } else {
            format!("{mismatches} mismatches")
        }
    ));
    fig
}

//! Regenerates Table 3: the smart-phone real-life example, with and
//! without DVS, with and without mode execution probabilities.
//!
//! Usage: `cargo run --release -p momsynth-bench --bin table3 [--runs N] [--seed S] [--quick] [--out DIR]`

use momsynth_bench::{
    compare_flows_detailed, render_table, retain_verified, write_results, HarnessOptions,
};
use momsynth_gen::smartphone::smartphone;

fn main() {
    let options = HarnessOptions::from_args();
    let phone = smartphone();
    println!("{}", phone.summary());

    eprintln!("synthesising smart phone (fixed voltage) …");
    let (mut fixed, mut summaries) = compare_flows_detailed(&phone, false, &options);
    fixed.name = "w/o DVS".into();
    eprintln!("synthesising smart phone (DVS) …");
    let (mut dvs, dvs_summaries) = compare_flows_detailed(&phone, true, &options);
    dvs.name = "with DVS".into();
    summaries.extend(dvs_summaries);

    let overall = (1.0 - dvs.power_aware_mw / fixed.power_neglecting_mw) * 100.0;
    let mut rows = vec![fixed, dvs];
    retain_verified(&mut rows);
    let mut report =
        render_table(&format!("Table 3 — smart phone, {} runs/flow", options.runs), &rows);
    report.push_str(&format!(
        "overall reduction (w/o DVS, w/o probab. -> DVS + probab.): {overall:.2} %\n"
    ));
    print!("{report}");
    write_results(&options, "table3", &report, &summaries);
}

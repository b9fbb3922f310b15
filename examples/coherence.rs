//! §4.3 — cache coherence with fine-grained access control: compare the
//! three software schemes (reference checking, ECC faults, informing memory
//! operations) on one parallel application.
//!
//! ```sh
//! cargo run --release --example coherence [app] [procs]
//! ```

use informing_memops::coherence::{simulate, MachineParams, Scheme};
use informing_memops::util::table::Table;
use informing_memops::workloads::parallel::{app_by_name, TraceConfig, APPS};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "migratory".to_string());
    let procs: usize = std::env::args().nth(2).map(|s| s.parse()).transpose()?.unwrap_or(16);

    let cfg = TraceConfig { procs, ops_per_proc: 12_000, seed: 0x1996 };
    let app = app_by_name(&name).ok_or_else(|| {
        let names: Vec<_> = APPS.iter().map(|a| a.name).collect();
        format!("unknown app `{name}` ({})", names.join(", "))
    })?;
    let app = (app.build)(&cfg);
    let params = MachineParams::table2();

    println!(
        "`{}` on {} processors (write fraction {:.0}%, {} refs/proc)\n",
        app.name,
        procs,
        app.write_fraction() * 100.0,
        cfg.ops_per_proc
    );

    let mut results = Vec::new();
    for scheme in Scheme::all() {
        results.push(simulate(&app, scheme, &params)?);
    }
    let base = results[2].total_cycles as f64; // informing

    let mut t = Table::new([
        "scheme", "cycles", "per ref", "lookups", "faults", "actions", "invals", "norm",
    ]);
    for r in &results {
        t.row([
            r.scheme.name().to_string(),
            r.total_cycles.to_string(),
            format!("{:.1}", r.cycles_per_op()),
            r.lookups.to_string(),
            r.faults.to_string(),
            r.actions.to_string(),
            r.invalidations.to_string(),
            format!("{:.3}", r.total_cycles as f64 / base),
        ]);
    }
    print!("{}", t.render());
    println!("\nnormalized to the informing scheme (= 1.000)");
    Ok(())
}

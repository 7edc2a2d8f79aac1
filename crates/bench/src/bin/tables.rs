//! Regenerates Tables I, II and III of the paper from the catalog and the
//! energy model.

use prvm_bench::report_line;
use prvm_model::catalog;
use prvm_sim::PowerCurve;

fn main() -> Result<(), String> {
    report_line(format_args!("=== Table I: Description of VM types ==="))?;
    report_line(format_args!(
        "{:<12} {:>7} {:>11} {:>13} {:>7} {:>10}",
        "VM type", "#vCPU", "speed(GHz)", "memory(GiB)", "#disk", "size(GB)"
    ))?;
    for vm in catalog::ec2_vm_types() {
        report_line(format_args!(
            "{:<12} {:>7} {:>11.1} {:>13.2} {:>7} {:>10}",
            vm.name,
            vm.vcpus,
            vm.vcpu_mhz.get() as f64 / 1000.0,
            vm.memory.get() as f64 / 1024.0,
            vm.disks().len(),
            vm.disks().first().map_or(0, |d| d.get()),
        ))?;
    }

    report_line(format_args!("\n=== Table II: Description of PM types ==="))?;
    report_line(format_args!(
        "{:<12} {:>7} {:>11} {:>13} {:>7} {:>10}",
        "PM type", "#cores", "speed(GHz)", "memory(GiB)", "#disk", "size(GB)"
    ))?;
    for pm in catalog::ec2_pm_types() {
        report_line(format_args!(
            "{:<12} {:>7} {:>11.1} {:>13.2} {:>7} {:>10}",
            pm.name,
            pm.cores,
            pm.core_mhz.get() as f64 / 1000.0,
            pm.memory.get() as f64 / 1024.0,
            pm.disks().len(),
            pm.disks().first().map_or(0, |d| d.get()),
        ))?;
    }

    report_line(format_args!(
        "\n=== Table III: Power consumption vs. CPU utilization (W) ==="
    ))?;
    let mut line = format!("{:<14}", "CPU util.");
    for u in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        line += &format!(" {:>7.0}%", u * 100.0);
    }
    report_line(format_args!("{line}"))?;
    for (name, curve) in [
        ("E5-2670", PowerCurve::E5_2670),
        ("E5-2680", PowerCurve::E5_2680),
    ] {
        let mut line = format!("{name:<14}");
        for u in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
            line += &format!(" {:>8.1}", curve.watts_at(u));
        }
        report_line(format_args!("{line}"))?;
    }
    Ok(())
}

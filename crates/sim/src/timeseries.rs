//! Per-scan time series of a simulation run — the raw data behind the
//! figures, exportable as CSV for external plotting.

use serde::{Deserialize, Serialize};
use std::io::Write;

/// One scan's snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScanSample {
    /// Scan index (multiply by the scan interval for wall-clock time).
    pub scan: usize,
    /// PMs hosting at least one VM.
    pub active_pms: usize,
    /// Mean CPU demand / capacity across active PMs.
    pub mean_utilization: f64,
    /// PMs over the overload threshold this scan (before migration).
    pub overloaded_pms: usize,
    /// Migrations performed this scan.
    pub migrations: usize,
    /// Active-PM samples at/above the SLO threshold this scan.
    pub slo_violations: usize,
    /// Energy drawn this scan, in watt-hours.
    pub energy_wh: f64,
    /// PMs that crashed this scan (0 without a fault plan).
    pub pm_failures: usize,
    /// VMs successfully evacuated off crashed PMs this scan.
    pub evacuations: usize,
    /// Migration/evacuation attempts that failed in flight this scan.
    pub failed_migrations: usize,
    /// VMs offline this scan: awaiting evacuation off a crashed PM, or
    /// abandoned this scan. Each is one SLO-violating sample in the
    /// run's outcome, so the outcome's SLO percentage is
    /// Σ(`slo_violations` + `offline_vms`) / Σ(`active_pms` +
    /// `offline_vms`).
    pub offline_vms: usize,
}

/// The full per-scan record of one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    samples: Vec<ScanSample>,
}

impl TimeSeries {
    /// An empty series ([`crate::Scenario::run`] fills one per run).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one scan's snapshot.
    pub fn push(&mut self, sample: ScanSample) {
        self.samples.push(sample);
    }

    /// All samples in scan order.
    #[must_use]
    pub fn samples(&self) -> &[ScanSample] {
        &self.samples
    }

    /// Number of recorded scans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Scan index with the highest mean utilization, if any.
    #[must_use]
    pub fn peak_scan(&self) -> Option<usize> {
        self.samples
            .iter()
            .max_by(|a, b| a.mean_utilization.total_cmp(&b.mean_utilization))
            .map(|s| s.scan)
    }

    /// Total migrations across the series.
    #[must_use]
    pub fn total_migrations(&self) -> usize {
        self.samples.iter().map(|s| s.migrations).sum()
    }

    /// Write the series as CSV (`scan,active_pms,mean_utilization,…`).
    ///
    /// A `&mut` reference works as the writer (C-RW-VALUE): pass
    /// `&mut file`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_csv<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(
            w,
            "scan,active_pms,mean_utilization,overloaded_pms,migrations,slo_violations,energy_wh,\
             pm_failures,evacuations,failed_migrations,offline_vms"
        )?;
        for s in &self.samples {
            writeln!(
                w,
                "{},{},{:.6},{},{},{},{:.3},{},{},{},{}",
                s.scan,
                s.active_pms,
                s.mean_utilization,
                s.overloaded_pms,
                s.migrations,
                s.slo_violations,
                s.energy_wh,
                s.pm_failures,
                s.evacuations,
                s.failed_migrations,
                s.offline_vms
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(scan: usize, migr: usize, util: f64) -> ScanSample {
        ScanSample {
            scan,
            active_pms: 3,
            mean_utilization: util,
            overloaded_pms: 0,
            migrations: migr,
            slo_violations: 0,
            energy_wh: 1.5,
            pm_failures: 0,
            evacuations: 0,
            failed_migrations: 0,
            offline_vms: 0,
        }
    }

    #[test]
    fn accumulates_and_summarises() {
        let mut ts = TimeSeries::new();
        assert!(ts.is_empty());
        ts.push(sample(0, 2, 0.3));
        ts.push(sample(1, 1, 0.8));
        ts.push(sample(2, 0, 0.5));
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.total_migrations(), 3);
        assert_eq!(ts.peak_scan(), Some(1));
    }

    #[test]
    fn csv_round_trips_header_and_rows() {
        let mut ts = TimeSeries::new();
        ts.push(sample(0, 2, 0.25));
        let mut buf = Vec::new();
        ts.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("scan,active_pms"));
        assert!(lines[1].starts_with("0,3,0.25"));
    }

    #[test]
    fn empty_series_has_no_peak() {
        assert_eq!(TimeSeries::new().peak_scan(), None);
    }

    #[test]
    fn csv_output_matches_golden() {
        // Exact golden output: column order and float precision are part
        // of the format contract (external plotting scripts parse this).
        let mut ts = TimeSeries::new();
        ts.push(ScanSample {
            scan: 0,
            active_pms: 2,
            mean_utilization: 0.5,
            overloaded_pms: 1,
            migrations: 3,
            slo_violations: 1,
            energy_wh: 12.3456,
            pm_failures: 1,
            evacuations: 2,
            failed_migrations: 1,
            offline_vms: 4,
        });
        ts.push(ScanSample {
            scan: 1,
            active_pms: 10,
            mean_utilization: 0.123456789,
            overloaded_pms: 0,
            migrations: 0,
            slo_violations: 0,
            energy_wh: 0.0,
            pm_failures: 0,
            evacuations: 0,
            failed_migrations: 0,
            offline_vms: 0,
        });
        let mut buf = Vec::new();
        ts.write_csv(&mut buf).unwrap();
        let expected = "\
scan,active_pms,mean_utilization,overloaded_pms,migrations,slo_violations,energy_wh,pm_failures,evacuations,failed_migrations,offline_vms
0,2,0.500000,1,3,1,12.346,1,2,1,4
1,10,0.123457,0,0,0,0.000,0,0,0,0
";
        assert_eq!(String::from_utf8(buf).unwrap(), expected);
    }
}

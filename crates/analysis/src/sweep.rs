//! The beamwidth sweep regenerating Fig. 5.

use dirca_mac::Scheme;

use crate::optimize::max_throughput;
use crate::{ModelInput, ProtocolTimes};

/// One row of the Fig. 5 data: maximum achievable throughput of the three
/// schemes at a given beamwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Row {
    /// Beamwidth in degrees.
    pub theta_degrees: f64,
    /// ORTS-OCTS maximum throughput (independent of θ).
    pub orts_octs: f64,
    /// DRTS-DCTS maximum throughput.
    pub drts_dcts: f64,
    /// DRTS-OCTS maximum throughput.
    pub drts_octs: f64,
}

impl Fig5Row {
    /// Throughput of `scheme` in this row.
    pub fn get(&self, scheme: Scheme) -> f64 {
        match scheme {
            Scheme::OrtsOcts => self.orts_octs,
            Scheme::DrtsDcts => self.drts_dcts,
            Scheme::DrtsOcts => self.drts_octs,
        }
    }
}

/// Sweeps the beamwidth over `theta_degrees` and computes the maximum
/// achievable throughput of every scheme (the paper's Fig. 5; its x-axis
/// runs 15°…180° in 15° steps).
///
/// # Panics
///
/// Panics on invalid beamwidths (outside `(0, 360]`) or `n_avg <= 0`.
///
/// # Example
///
/// ```
/// use dirca_analysis::sweep::fig5;
/// use dirca_analysis::ProtocolTimes;
///
/// let rows = fig5(ProtocolTimes::paper(), 5.0, &[15.0, 90.0]);
/// assert_eq!(rows.len(), 2);
/// // Narrow beams: all-directional wins decisively.
/// assert!(rows[0].drts_dcts > rows[0].drts_octs);
/// assert!(rows[0].drts_dcts > rows[0].orts_octs);
/// ```
pub fn fig5(times: ProtocolTimes, n_avg: f64, theta_degrees: &[f64]) -> Vec<Fig5Row> {
    theta_degrees
        .iter()
        .map(|&deg| {
            let input = ModelInput::new(times, n_avg, deg.to_radians());
            Fig5Row {
                theta_degrees: deg,
                orts_octs: max_throughput(Scheme::OrtsOcts, &input).throughput,
                drts_dcts: max_throughput(Scheme::DrtsDcts, &input).throughput,
                drts_octs: max_throughput(Scheme::DrtsOcts, &input).throughput,
            }
        })
        .collect()
}

/// The paper's Fig. 5 x-axis: 15° to 180° in 15° steps.
pub fn paper_theta_grid() -> Vec<f64> {
    (1..=12).map(|i| 15.0 * i as f64).collect()
}

/// One row of the data-length sweep (extension E10): maximum achievable
/// throughput of the three schemes as the data packet length varies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataLengthRow {
    /// Data packet length in slots.
    pub l_data: u32,
    /// ORTS-OCTS maximum throughput.
    pub orts_octs: f64,
    /// DRTS-DCTS maximum throughput.
    pub drts_dcts: f64,
    /// DRTS-OCTS maximum throughput.
    pub drts_octs: f64,
}

/// Sweeps the data packet length at fixed beamwidth, quantifying the §3
/// remark that the RTS/CTS handshake is only warranted when data packets
/// are much longer than control packets: at small `l_data` the four-way
/// overhead dominates every scheme.
///
/// # Panics
///
/// Panics if any `l_data` is zero or the other inputs are invalid (see
/// [`crate::ModelInput::new`]).
pub fn data_length_sweep(
    base: ProtocolTimes,
    n_avg: f64,
    theta: f64,
    l_data_values: &[u32],
) -> Vec<DataLengthRow> {
    l_data_values
        .iter()
        .map(|&l_data| {
            assert!(l_data > 0, "l_data must be positive");
            let times = ProtocolTimes { l_data, ..base };
            let input = ModelInput::new(times, n_avg, theta);
            DataLengthRow {
                l_data,
                orts_octs: max_throughput(Scheme::OrtsOcts, &input).throughput,
                drts_dcts: max_throughput(Scheme::DrtsDcts, &input).throughput,
                drts_octs: max_throughput(Scheme::DrtsOcts, &input).throughput,
            }
        })
        .collect()
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_is_15_to_180() {
        let grid = paper_theta_grid();
        assert_eq!(grid.len(), 12);
        assert_eq!(grid[0], 15.0);
        assert_eq!(grid[11], 180.0);
    }

    #[test]
    fn fig5_shape_matches_paper() {
        let rows = fig5(ProtocolTimes::paper(), 5.0, &paper_theta_grid());

        // (1) ORTS-OCTS is flat in θ.
        let base = rows[0].orts_octs;
        for row in &rows {
            assert!(
                (row.orts_octs - base).abs() < 1e-6,
                "ORTS-OCTS varied with θ"
            );
        }

        // (2) DRTS-DCTS is the overall winner at the narrowest beam and
        //     decays monotonically with θ.
        assert!(rows[0].drts_dcts > rows[0].drts_octs);
        assert!(rows[0].drts_dcts > 1.4 * rows[0].orts_octs);
        for w in rows.windows(2) {
            assert!(
                w[1].drts_dcts <= w[0].drts_dcts + 1e-9,
                "DRTS-DCTS rose between θ={} and θ={}",
                w[0].theta_degrees,
                w[1].theta_degrees
            );
        }

        // (3) DRTS-OCTS differs from ORTS-OCTS only marginally: above it
        //     for narrow beams, slightly below for very wide ones, always
        //     within ±60%.
        for row in &rows {
            if row.theta_degrees <= 60.0 {
                assert!(
                    row.drts_octs >= row.orts_octs - 1e-9,
                    "DRTS-OCTS below ORTS-OCTS at narrow θ={}",
                    row.theta_degrees
                );
            }
            let ratio = row.drts_octs / row.orts_octs;
            assert!(
                (0.8..1.6).contains(&ratio),
                "DRTS-OCTS not marginal at θ={}: ratio {ratio}",
                row.theta_degrees
            );
        }

        // (4) "When the antenna beamwidth is wider, the performance of
        //     DRTS-DCTS drops significantly": by 180° it falls below the
        //     conservative schemes.
        let last = rows.last().unwrap();
        assert!(last.drts_dcts < last.orts_octs);
        assert!(last.drts_dcts < 0.5 * rows[0].drts_dcts);
    }

    #[test]
    fn fig5_row_get_dispatches() {
        let row = Fig5Row {
            theta_degrees: 30.0,
            orts_octs: 0.1,
            drts_dcts: 0.5,
            drts_octs: 0.2,
        };
        assert_eq!(row.get(Scheme::OrtsOcts), 0.1);
        assert_eq!(row.get(Scheme::DrtsDcts), 0.5);
        assert_eq!(row.get(Scheme::DrtsOcts), 0.2);
    }

    #[test]
    fn longer_data_amortizes_handshake_overhead() {
        let rows = data_length_sweep(
            ProtocolTimes::paper(),
            5.0,
            30f64.to_radians(),
            &[10, 50, 100, 200, 400],
        );
        assert_eq!(rows.len(), 5);
        // Throughput rises monotonically with data length for every scheme.
        for w in rows.windows(2) {
            assert!(w[1].orts_octs > w[0].orts_octs);
            assert!(w[1].drts_dcts > w[0].drts_dcts);
            assert!(w[1].drts_octs > w[0].drts_octs);
        }
        // With data as short as the control packets, the handshake
        // overhead caps everything well below the long-data regime.
        assert!(rows[0].orts_octs < 0.5 * rows[4].orts_octs);
    }

    #[test]
    #[should_panic(expected = "l_data must be positive")]
    fn data_length_sweep_rejects_zero() {
        let _ = data_length_sweep(ProtocolTimes::paper(), 5.0, 1.0, &[0]);
    }

    #[test]
    fn density_reduces_all_throughputs() {
        let sparse = fig5(ProtocolTimes::paper(), 3.0, &[30.0]);
        let dense = fig5(ProtocolTimes::paper(), 8.0, &[30.0]);
        assert!(dense[0].orts_octs < sparse[0].orts_octs);
        assert!(dense[0].drts_dcts < sparse[0].drts_dcts);
        assert!(dense[0].drts_octs < sparse[0].drts_octs);
    }
}

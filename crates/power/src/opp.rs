//! Operating performance points: the frequency/voltage steps of the CPU.
//!
//! The paper's platform is a Qualcomm Dragonboard APQ8074 (Snapdragon 8074,
//! Krait 400) exposing 14 frequency points from 0.30 GHz to 2.15 GHz. The
//! same table, with Krait-class voltages, is the default here; custom
//! tables are supported for ablations.

use std::fmt;

use serde::{Deserialize, Serialize};

use interlag_evdev::time::SimDuration;

/// A CPU clock frequency, stored in kHz as cpufreq does.
///
/// # Examples
///
/// ```
/// use interlag_power::opp::Frequency;
///
/// let f = Frequency::from_mhz(960);
/// assert_eq!(f.as_khz(), 960_000);
/// assert_eq!(f.to_string(), "0.96 GHz");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Frequency(u32);

impl Frequency {
    /// Creates a frequency from kHz.
    pub const fn from_khz(khz: u32) -> Self {
        Frequency(khz)
    }

    /// Creates a frequency from MHz.
    pub const fn from_mhz(mhz: u32) -> Self {
        Frequency(mhz * 1_000)
    }

    /// The frequency in kHz.
    pub const fn as_khz(self) -> u32 {
        self.0
    }

    /// The frequency in MHz as a float.
    pub fn as_mhz(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The frequency in GHz as a float.
    pub fn as_ghz(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Cycles executed in `span` at this frequency.
    pub fn cycles_in(self, span: SimDuration) -> u64 {
        // khz × µs / 1000 = cycles, exact in integer arithmetic.
        self.0 as u64 * span.as_micros() / 1_000
    }

    /// The time needed to execute `cycles` at this frequency, rounded up
    /// to the next microsecond so work never finishes early.
    pub fn time_for(self, cycles: u64) -> SimDuration {
        let khz = self.0 as u64;
        SimDuration::from_micros((cycles * 1_000).div_ceil(khz))
    }
}

impl fmt::Display for Frequency {
    /// Formats like the paper's axis labels: `0.96 GHz`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GHz", self.as_ghz())
    }
}

/// One operating point: a frequency and the supply voltage it requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Opp {
    /// Clock frequency.
    pub freq: Frequency,
    /// Supply voltage in millivolts.
    pub voltage_mv: u32,
}

impl Opp {
    /// Creates an operating point.
    pub const fn new(khz: u32, voltage_mv: u32) -> Self {
        Opp { freq: Frequency::from_khz(khz), voltage_mv }
    }

    /// Supply voltage in volts.
    pub fn voltage_v(&self) -> f64 {
        self.voltage_mv as f64 / 1_000.0
    }
}

/// An ordered table of operating points.
///
/// # Examples
///
/// ```
/// use interlag_power::opp::{Frequency, OppTable};
///
/// let table = OppTable::snapdragon_8074();
/// assert_eq!(table.len(), 14);
/// assert_eq!(table.min_freq(), Frequency::from_mhz(300));
/// assert_eq!(table.max_freq(), Frequency::from_khz(2_150_400));
/// let f = table.lowest_at_least(Frequency::from_mhz(1_000)).unwrap();
/// assert_eq!(f, Frequency::from_khz(1_036_800));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OppTable {
    opps: Vec<Opp>,
}

impl OppTable {
    /// Creates a table from operating points, sorting them by frequency.
    ///
    /// # Panics
    ///
    /// Panics if `opps` is empty or contains duplicate frequencies.
    pub fn new(mut opps: Vec<Opp>) -> Self {
        assert!(!opps.is_empty(), "an OPP table needs at least one point");
        opps.sort_by_key(|o| o.freq);
        for pair in opps.windows(2) {
            assert_ne!(pair[0].freq, pair[1].freq, "duplicate OPP frequency {}", pair[0].freq);
        }
        OppTable { opps }
    }

    /// The 14-point Snapdragon 8074 table used throughout the paper, with
    /// Krait-400-class voltages.
    pub fn snapdragon_8074() -> Self {
        OppTable::new(vec![
            Opp::new(300_000, 800),
            Opp::new(422_400, 805),
            Opp::new(652_800, 812),
            Opp::new(729_600, 815),
            Opp::new(883_200, 820),
            Opp::new(960_000, 822),
            Opp::new(1_036_800, 840),
            Opp::new(1_190_400, 870),
            Opp::new(1_267_200, 890),
            Opp::new(1_497_600, 950),
            Opp::new(1_574_400, 970),
            Opp::new(1_728_000, 1_020),
            Opp::new(1_958_400, 1_080),
            Opp::new(2_150_400, 1_120),
        ])
    }

    /// Number of operating points.
    pub fn len(&self) -> usize {
        self.opps.len()
    }

    /// `false`: tables are never empty (enforced at construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// All points, slowest first.
    pub fn opps(&self) -> &[Opp] {
        &self.opps
    }

    /// All frequencies, slowest first.
    pub fn frequencies(&self) -> impl Iterator<Item = Frequency> + '_ {
        self.opps.iter().map(|o| o.freq)
    }

    /// The slowest frequency.
    pub fn min_freq(&self) -> Frequency {
        self.opps[0].freq
    }

    /// The fastest frequency.
    pub fn max_freq(&self) -> Frequency {
        self.opps[self.opps.len() - 1].freq
    }

    /// The operating point running at `freq`, if it is in the table.
    pub fn opp_of(&self, freq: Frequency) -> Option<&Opp> {
        self.opps.iter().find(|o| o.freq == freq)
    }

    /// Index of `freq` within the table.
    pub fn index_of(&self, freq: Frequency) -> Option<usize> {
        self.opps.iter().position(|o| o.freq == freq)
    }

    /// The point `steps` above `freq`, saturating at the fastest.
    pub fn step_up(&self, freq: Frequency, steps: usize) -> Frequency {
        match self.index_of(freq) {
            Some(i) => self.opps[(i + steps).min(self.opps.len() - 1)].freq,
            None => self.max_freq(),
        }
    }

    /// The point `steps` below `freq`, saturating at the slowest.
    pub fn step_down(&self, freq: Frequency, steps: usize) -> Frequency {
        match self.index_of(freq) {
            Some(i) => self.opps[i.saturating_sub(steps)].freq,
            None => self.min_freq(),
        }
    }

    /// The slowest frequency that is at least `target`, or `None` if even
    /// the fastest point is below it.
    pub fn lowest_at_least(&self, target: Frequency) -> Option<Frequency> {
        self.opps.iter().map(|o| o.freq).find(|f| *f >= target)
    }

    /// The fastest frequency that is at most `target`; falls back to the
    /// slowest point if `target` is below the table.
    pub fn highest_at_most(&self, target: Frequency) -> Frequency {
        self.opps.iter().map(|o| o.freq).rfind(|f| *f <= target).unwrap_or_else(|| self.min_freq())
    }

    /// Clamps an arbitrary frequency onto the nearest table entry at or
    /// above it (cpufreq's `CPUFREQ_RELATION_L`).
    pub fn quantize_up(&self, target: Frequency) -> Frequency {
        self.lowest_at_least(target).unwrap_or_else(|| self.max_freq())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapdragon_table_matches_paper_labels() {
        let t = OppTable::snapdragon_8074();
        let labels: Vec<String> = t.frequencies().map(|f| f.to_string()).collect();
        assert_eq!(
            labels,
            [
                "0.30 GHz", "0.42 GHz", "0.65 GHz", "0.73 GHz", "0.88 GHz", "0.96 GHz", "1.04 GHz",
                "1.19 GHz", "1.27 GHz", "1.50 GHz", "1.57 GHz", "1.73 GHz", "1.96 GHz", "2.15 GHz"
            ]
        );
    }

    #[test]
    fn voltages_rise_with_frequency() {
        let t = OppTable::snapdragon_8074();
        for pair in t.opps().windows(2) {
            assert!(pair[0].voltage_mv <= pair[1].voltage_mv);
        }
    }

    #[test]
    fn cycles_and_time_roundtrip() {
        let f = Frequency::from_mhz(960);
        let d = SimDuration::from_millis(10);
        let cycles = f.cycles_in(d);
        assert_eq!(cycles, 9_600_000);
        assert_eq!(f.time_for(cycles), d);
        // time_for rounds up.
        assert_eq!(Frequency::from_khz(1_000).time_for(1), SimDuration::from_micros(1));
    }

    #[test]
    fn stepping_saturates() {
        let t = OppTable::snapdragon_8074();
        assert_eq!(t.step_down(t.min_freq(), 3), t.min_freq());
        assert_eq!(t.step_up(t.max_freq(), 1), t.max_freq());
        assert_eq!(t.step_up(t.min_freq(), 1), Frequency::from_khz(422_400));
        // Unknown frequency saturates to the extremes.
        assert_eq!(t.step_up(Frequency::from_mhz(5_000), 1), t.max_freq());
        assert_eq!(t.step_down(Frequency::from_mhz(5_000), 1), t.min_freq());
    }

    #[test]
    fn quantization() {
        let t = OppTable::snapdragon_8074();
        assert_eq!(t.quantize_up(Frequency::from_mhz(1)), t.min_freq());
        assert_eq!(t.quantize_up(Frequency::from_mhz(2_149)), t.max_freq());
        assert_eq!(t.quantize_up(Frequency::from_mhz(9_999)), t.max_freq());
        assert_eq!(t.highest_at_most(Frequency::from_mhz(1_000)), Frequency::from_khz(960_000));
        assert_eq!(t.highest_at_most(Frequency::from_mhz(1)), t.min_freq());
        assert_eq!(t.lowest_at_least(Frequency::from_mhz(9_999)), None);
    }

    #[test]
    #[should_panic(expected = "duplicate OPP")]
    fn duplicate_frequencies_rejected() {
        OppTable::new(vec![Opp::new(1_000, 800), Opp::new(1_000, 900)]);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_table_rejected() {
        OppTable::new(Vec::new());
    }
}

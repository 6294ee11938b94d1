//! Input classification: from raw traces back to user-level inputs.
//!
//! Figure 10 of the paper counts, for every dataset, how many recorded
//! inputs were taps and how many were swipes. That classification starts
//! from the raw event trace: contacts are reconstructed with the
//! [`MtDecoder`] and each contact's travel distance
//! decides tap vs swipe. Hardware key presses are reported separately.

use serde::{Deserialize, Serialize};

use crate::event::{codes, EventType, TimedEvent};
use crate::mt::{ContactEvent, MtDecoder, Point};
use crate::time::{SimDuration, SimTime};

/// The kind of one user-level input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InputClass {
    /// Press and release without significant travel.
    Tap,
    /// A drag: travel beyond the tap slop.
    Swipe,
    /// A hardware key press.
    Key,
}

/// One user-level input reconstructed from the raw trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UserInput {
    /// Tap, swipe or key.
    pub class: InputClass,
    /// When the finger landed / the key went down. This is the instant an
    /// interaction lag *begins*.
    pub time: SimTime,
    /// Where the finger landed (keys report `(0, 0)`).
    pub pos: Point,
    /// Contact time (down to up).
    pub duration: SimDuration,
    /// Straight-line travel in pixels.
    pub travel: f64,
}

/// Tunables of the classifier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassifierConfig {
    /// Travel below this many pixels still counts as a tap (Android's
    /// "touch slop" is 8 dp ≈ 16 px on an xhdpi panel).
    pub tap_slop_px: f64,
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        ClassifierConfig { tap_slop_px: 16.0 }
    }
}

/// Per-class input counts, the left bars of Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct InputCounts {
    /// Number of taps.
    pub taps: usize,
    /// Number of swipes.
    pub swipes: usize,
    /// Number of hardware key presses.
    pub keys: usize,
}

impl InputCounts {
    /// All inputs together.
    pub fn total(&self) -> usize {
        self.taps + self.swipes + self.keys
    }
}

/// Classifies every user input in `trace`.
///
/// Touch contacts are reconstructed per device node; a contact is one
/// input. Key inputs are taken from `EV_KEY` press events on non-touch
/// codes.
///
/// # Examples
///
/// ```
/// use interlag_evdev::classify::{classify_trace, ClassifierConfig, InputClass};
/// use interlag_evdev::gesture::{Gesture, GestureSynth};
/// use interlag_evdev::mt::Point;
/// use interlag_evdev::time::SimTime;
/// use interlag_evdev::trace::EventTrace;
///
/// let mut synth = GestureSynth::new(1, 4);
/// let mut trace = EventTrace::new();
/// trace.extend_events(synth.lower(SimTime::from_secs(1), &Gesture::tap(Point::new(5, 5))));
/// trace.extend_events(synth.lower(
///     SimTime::from_secs(2),
///     &Gesture::swipe(Point::new(0, 400), Point::new(0, 100)),
/// ));
/// let inputs = classify_trace(&trace, &ClassifierConfig::default());
/// assert_eq!(inputs[0].class, InputClass::Tap);
/// assert_eq!(inputs[1].class, InputClass::Swipe);
/// ```
pub fn classify_trace(
    trace: &crate::trace::EventTrace,
    config: &ClassifierConfig,
) -> Vec<UserInput> {
    let mut inputs = Vec::new();

    // Touch contacts, one decoder per device node seen in the trace.
    let mut devices: Vec<u8> = trace.iter().map(|e| e.device).collect();
    devices.sort_unstable();
    devices.dedup();
    for dev in devices {
        inputs.extend(classify_touch_device(trace.events(), dev, config));
    }

    // Hardware keys: every key-down on a non-touch code is one input.
    for ev in trace.iter() {
        if ev.event.kind == EventType::Key
            && ev.event.code != codes::BTN_TOUCH
            && ev.event.value == 1
        {
            let release = trace
                .iter()
                .find(|e| {
                    e.time >= ev.time
                        && e.event.kind == EventType::Key
                        && e.event.code == ev.event.code
                        && e.event.value == 0
                })
                .map(|e| e.time)
                .unwrap_or(ev.time);
            inputs.push(UserInput {
                class: InputClass::Key,
                time: ev.time,
                pos: Point::new(0, 0),
                duration: release - ev.time,
                travel: 0.0,
            });
        }
    }

    inputs.sort_by_key(|i| i.time);
    inputs
}

fn classify_touch_device(
    events: &[TimedEvent],
    device: u8,
    config: &ClassifierConfig,
) -> Vec<UserInput> {
    #[derive(Clone, Copy)]
    struct Open {
        start: SimTime,
        start_pos: Point,
        last_pos: Point,
    }

    let mut dec = MtDecoder::new();
    let mut open: Vec<Option<Open>> = Vec::new();
    let mut out = Vec::new();

    for te in events.iter().filter(|e| e.device == device) {
        for contact in dec.push(te.time, te.event) {
            let slot = contact.slot();
            if open.len() <= slot {
                open.resize(slot + 1, None);
            }
            match contact {
                ContactEvent::Down { pos, time, .. } => {
                    open[slot] = Some(Open { start: time, start_pos: pos, last_pos: pos });
                }
                ContactEvent::Move { pos, .. } => {
                    if let Some(o) = open[slot].as_mut() {
                        o.last_pos = pos;
                    }
                }
                ContactEvent::Up { pos, time, .. } => {
                    if let Some(o) = open[slot].take() {
                        let end_pos = if pos == Point::new(0, 0) { o.last_pos } else { pos };
                        let travel = o.start_pos.distance(end_pos);
                        out.push(UserInput {
                            class: if travel <= config.tap_slop_px {
                                InputClass::Tap
                            } else {
                                InputClass::Swipe
                            },
                            time: o.start,
                            pos: o.start_pos,
                            duration: time - o.start,
                            travel,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Tallies classified inputs into [`InputCounts`].
pub fn count_inputs(inputs: &[UserInput]) -> InputCounts {
    let mut c = InputCounts::default();
    for i in inputs {
        match i.class {
            InputClass::Tap => c.taps += 1,
            InputClass::Swipe => c.swipes += 1,
            InputClass::Key => c.keys += 1,
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gesture::{Gesture, GestureSynth, HardKey};
    use crate::trace::EventTrace;

    fn trace_of(gestures: &[(u64, Gesture)]) -> EventTrace {
        let mut synth = GestureSynth::new(1, 4);
        let mut trace = EventTrace::new();
        for &(ms, ref g) in gestures {
            trace.extend_events(synth.lower(SimTime::from_millis(ms), g));
        }
        trace
    }

    #[test]
    fn counts_taps_swipes_and_keys() {
        let trace = trace_of(&[
            (0, Gesture::tap(Point::new(10, 10))),
            (500, Gesture::swipe(Point::new(0, 300), Point::new(0, 100))),
            (1_000, Gesture::tap(Point::new(20, 20))),
            (1_500, Gesture::Key { key: HardKey::Home, hold: SimDuration::from_millis(70) }),
        ]);
        let inputs = classify_trace(&trace, &ClassifierConfig::default());
        let counts = count_inputs(&inputs);
        assert_eq!(counts, InputCounts { taps: 2, swipes: 1, keys: 1 });
        assert_eq!(counts.total(), 4);
    }

    #[test]
    fn short_drag_within_slop_is_a_tap() {
        // 10 px travel is under the 16 px slop.
        let trace = trace_of(&[(
            0,
            Gesture::Swipe {
                from: Point::new(100, 100),
                to: Point::new(106, 108),
                duration: SimDuration::from_millis(120),
            },
        )]);
        let inputs = classify_trace(&trace, &ClassifierConfig::default());
        assert_eq!(inputs[0].class, InputClass::Tap);
        assert!(inputs[0].travel < 16.0);
    }

    #[test]
    fn input_time_is_finger_down_time() {
        let trace = trace_of(&[(250, Gesture::tap(Point::new(1, 2)))]);
        let inputs = classify_trace(&trace, &ClassifierConfig::default());
        assert_eq!(inputs[0].time, SimTime::from_millis(250));
        assert_eq!(inputs[0].duration, SimDuration::from_millis(80));
        assert_eq!(inputs[0].pos, Point::new(1, 2));
    }

    #[test]
    fn inputs_sorted_across_devices() {
        let trace = trace_of(&[
            (100, Gesture::Key { key: HardKey::Back, hold: SimDuration::from_millis(50) }),
            (300, Gesture::tap(Point::new(1, 1))),
        ]);
        let inputs = classify_trace(&trace, &ClassifierConfig::default());
        assert_eq!(inputs[0].class, InputClass::Key);
        assert_eq!(inputs[1].class, InputClass::Tap);
        assert!(inputs[0].time < inputs[1].time);
    }

    #[test]
    fn empty_trace_yields_no_inputs() {
        let inputs = classify_trace(&EventTrace::new(), &ClassifierConfig::default());
        assert!(inputs.is_empty());
        assert_eq!(count_inputs(&inputs).total(), 0);
    }
}

//! The renderer: scene plus decorations to pixels.
//!
//! The simulated panel is deliberately small (72 × 120): the analysis
//! algorithms care about *which* frames differ, not about resolution, and
//! a small panel keeps day-long captures cheap. Decorations — the
//! status-bar clock, a blinking cursor, an indeterminate spinner — are the
//! time-driven screen content that changes without any interaction being
//! serviced; they are what the paper's masks and pixel tolerances exist to
//! neutralise.

use serde::{Deserialize, Serialize};

use interlag_evdev::time::{SimDuration, SimTime};
use interlag_video::frame::{FrameBuffer, Rect};
use interlag_video::mask::Mask;

use crate::scene::Scene;

/// Screen geometry and decoration layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScreenConfig {
    /// Panel width in pixels.
    pub width: u32,
    /// Panel height in pixels.
    pub height: u32,
    /// Rows occupied by the status bar.
    pub status_bar_rows: u32,
    /// Clock area inside the status bar.
    pub clock_rect: Rect,
    /// Blinking cursor area (when a scene shows a cursor).
    pub cursor_rect: Rect,
    /// Spinner area (when a scene shows a spinner).
    pub spinner_rect: Rect,
}

impl ScreenConfig {
    /// The body of the screen (everything below the status bar).
    pub fn body(&self) -> Rect {
        Rect { x0: 0, y0: self.status_bar_rows, x1: self.width, y1: self.height }
    }

    /// The standard mask for this screen: the status bar (which contains
    /// the clock). This is the mask annotation databases apply by default.
    pub fn status_bar_mask(&self) -> Mask {
        Mask::status_bar(self.width, self.status_bar_rows)
    }

    /// A mask hiding the cursor area, for annotating typing lags.
    pub fn cursor_mask(&self) -> Mask {
        Mask::new().with_excluded(self.cursor_rect)
    }

    /// A mask hiding the spinner animation.
    pub fn spinner_mask(&self) -> Mask {
        Mask::new().with_excluded(self.spinner_rect)
    }
}

impl Default for ScreenConfig {
    fn default() -> Self {
        ScreenConfig {
            width: 72,
            height: 120,
            status_bar_rows: 6,
            clock_rect: Rect::new(48, 0, 24, 6),
            cursor_rect: Rect::new(4, 110, 2, 8),
            spinner_rect: Rect::new(32, 56, 8, 8),
        }
    }
}

/// How often the cursor toggles.
pub const CURSOR_BLINK_PERIOD: SimDuration = SimDuration::from_millis(500);
/// How often the spinner advances a frame.
pub const SPINNER_FRAME_PERIOD: SimDuration = SimDuration::from_millis(100);

/// The time-driven part of the screen contents. Two renders with equal
/// decoration state and equal scenes produce identical pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecorationState {
    /// Whole seconds since boot (drives the clock).
    pub clock_seconds: u64,
    /// Cursor phase: `true` = visible.
    pub cursor_on: bool,
    /// Spinner animation frame counter.
    pub spinner_frame: u64,
}

impl DecorationState {
    /// The decoration state at `now` for a given scene. `spinner_frame`
    /// is the animation frame counter owned by the device: it advances
    /// when a UI render pass *completes*, not with wall time — a busy
    /// core therefore drops animation frames (jank).
    pub fn at(now: SimTime, scene: &Scene, spinner_frame: u64) -> Self {
        DecorationState {
            clock_seconds: now.as_micros() / 1_000_000,
            cursor_on: scene.cursor
                && (now.as_micros() / CURSOR_BLINK_PERIOD.as_micros()).is_multiple_of(2),
            spinner_frame: if scene.spinner { spinner_frame } else { 0 },
        }
    }

    /// When the time-driven decorations next change for `scene` (the
    /// clock always ticks; the spinner is render-driven and not included).
    pub fn next_change(now: SimTime, scene: &Scene) -> SimTime {
        let mut next = SimTime::from_secs(now.as_micros() / 1_000_000 + 1);
        if scene.cursor {
            let p = CURSOR_BLINK_PERIOD.as_micros();
            next = next.min(SimTime::from_micros((now.as_micros() / p + 1) * p));
        }
        next
    }
}

/// Renders scenes into frame buffers.
#[derive(Debug, Clone)]
pub struct Renderer {
    config: ScreenConfig,
}

impl Renderer {
    /// Creates a renderer for the given screen.
    pub fn new(config: ScreenConfig) -> Self {
        Renderer { config }
    }

    /// The screen geometry in use.
    pub fn config(&self) -> &ScreenConfig {
        &self.config
    }

    /// Draws `scene` with decorations `deco` into a fresh buffer.
    pub fn render(&self, scene: &Scene, deco: &DecorationState) -> FrameBuffer {
        let c = &self.config;
        let mut fb = FrameBuffer::new(c.width, c.height);
        let full = fb.bounds();
        self.paint(&mut fb, scene, deco, full);
        fb
    }

    /// Re-renders `prev`, a render of `scene` under decorations `from`,
    /// for decorations `to`: the frame is copied and only the rects of the
    /// decorations that changed are repainted, through the same layered
    /// paint sequence as [`Renderer::render`] clipped to each rect. Scene
    /// elements overlapping a decoration are therefore redrawn over it
    /// exactly as a full render would, and the result always equals
    /// `render(scene, to)`.
    pub fn redecorate(
        &self,
        prev: &FrameBuffer,
        scene: &Scene,
        from: &DecorationState,
        to: &DecorationState,
    ) -> FrameBuffer {
        let c = &self.config;
        let mut fb = prev.clone();
        let changed = [
            (from.clock_seconds != to.clock_seconds, c.clock_rect),
            (scene.cursor && from.cursor_on != to.cursor_on, c.cursor_rect),
            (scene.spinner && from.spinner_frame != to.spinner_frame, c.spinner_rect),
        ];
        for (_, rect) in changed.into_iter().filter(|(changed, _)| *changed) {
            self.paint(&mut fb, scene, to, rect);
        }
        fb
    }

    /// The layered paint sequence, restricted to `clip`. Every layer's
    /// texture depends only on absolute pixel positions, so painting a
    /// clipped region yields exactly the pixels a full paint puts there.
    fn paint(&self, fb: &mut FrameBuffer, scene: &Scene, deco: &DecorationState, clip: Rect) {
        let c = &self.config;
        let clipped = |r: Rect| r.intersect(&clip);

        // Status bar: flat dark strip with the clock texture at the right.
        if let Some(r) = clipped(Rect::new(0, 0, c.width, c.status_bar_rows)) {
            fb.fill_rect(r, 24);
        }
        if let Some(r) = clipped(c.clock_rect) {
            fb.hash_paint(r, 0xc10c_c10c ^ deco.clock_seconds);
        }

        // Scene background and elements.
        if let Some(r) = clipped(c.body()) {
            fb.hash_paint(r, scene.background_seed);
        }
        for el in scene.elements.iter().filter(|e| e.visible) {
            if let Some(r) = clipped(el.rect) {
                fb.hash_paint(r, el.seed);
            }
        }

        // Cursor: solid block toggling with the blink phase.
        if scene.cursor {
            if let Some(r) = clipped(c.cursor_rect) {
                fb.fill_rect(r, if deco.cursor_on { 255 } else { 16 });
            }
        }

        // Spinner: re-textured every animation frame.
        if scene.spinner {
            if let Some(r) = clipped(c.spinner_rect) {
                fb.hash_paint(r, 0x5917_17e5 ^ deco.spinner_frame);
            }
        }
    }
}

impl Default for Renderer {
    fn default() -> Self {
        Renderer::new(ScreenConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::Element;

    fn deco(secs: u64) -> DecorationState {
        DecorationState { clock_seconds: secs, cursor_on: false, spinner_frame: 0 }
    }

    #[test]
    fn rendering_is_deterministic() {
        let r = Renderer::default();
        let s = Scene::new(77).with_element(Element::new(Rect::new(10, 20, 30, 30), 5));
        assert_eq!(r.render(&s, &deco(3)), r.render(&s, &deco(3)));
    }

    #[test]
    fn clock_change_stays_inside_status_bar() {
        let r = Renderer::default();
        let s = Scene::new(77);
        let a = r.render(&s, &deco(3));
        let b = r.render(&s, &deco(4));
        assert!(a.count_diff(&b, 0) > 0);
        let mask = r.config().status_bar_mask();
        assert_eq!(mask.count_diff(&a, &b, 0), 0);
    }

    #[test]
    fn revealing_an_element_changes_its_rect_only() {
        let r = Renderer::default();
        let rect = Rect::new(8, 40, 20, 16);
        let hidden = Scene::new(1).with_element(Element::hidden(rect, 9));
        let mut shown = hidden.clone();
        shown.elements[0].visible = true;
        let a = r.render(&hidden, &deco(0));
        let b = r.render(&shown, &deco(0));
        let diff = a.count_diff(&b, 0);
        assert!(diff > 0 && diff <= rect.area());
        // Nothing outside the element's rect changed.
        let mask = Mask::new().with_excluded(rect);
        assert_eq!(mask.count_diff(&a, &b, 0), 0);
    }

    #[test]
    fn cursor_blinks_with_phase() {
        let r = Renderer::default();
        let s = Scene::new(1).with_cursor();
        let on =
            r.render(&s, &DecorationState { clock_seconds: 0, cursor_on: true, spinner_frame: 0 });
        let off =
            r.render(&s, &DecorationState { clock_seconds: 0, cursor_on: false, spinner_frame: 0 });
        assert!(on.count_diff(&off, 0) > 0);
        assert_eq!(r.config().cursor_mask().count_diff(&on, &off, 0), 0);
    }

    #[test]
    fn decoration_state_schedule() {
        let plain = Scene::new(1);
        // Next change for a plain scene is the next clock tick.
        let now = SimTime::from_millis(1_234);
        assert_eq!(DecorationState::next_change(now, &plain), SimTime::from_secs(2));
        // A cursor halves the wait.
        let typing = Scene::new(1).with_cursor();
        assert_eq!(DecorationState::next_change(now, &typing), SimTime::from_millis(1_500));
        // The spinner is render-driven: it does not shorten the schedule.
        let loading = Scene::new(1).with_spinner();
        assert_eq!(DecorationState::next_change(now, &loading), SimTime::from_secs(2));
    }

    #[test]
    fn decoration_state_at_computes_phases() {
        let typing = Scene::new(1).with_cursor();
        let a = DecorationState::at(SimTime::from_millis(250), &typing, 0);
        assert!(a.cursor_on);
        let b = DecorationState::at(SimTime::from_millis(750), &typing, 0);
        assert!(!b.cursor_on);
        let plain = Scene::new(1);
        assert!(!DecorationState::at(SimTime::from_millis(250), &plain, 0).cursor_on);
        // The spinner frame passes through only while a spinner shows.
        let loading = Scene::new(1).with_spinner();
        assert_eq!(DecorationState::at(SimTime::ZERO, &loading, 7).spinner_frame, 7);
        assert_eq!(DecorationState::at(SimTime::ZERO, &plain, 7).spinner_frame, 0);
    }
}

//! The UI scene model: what the simulated screen is showing.
//!
//! A [`Scene`] is a deliberately minimal stand-in for an app's view
//! hierarchy: a textured background plus a set of rectangular elements,
//! each painted with a deterministic texture derived from its seed. What
//! matters for the QoE methodology is not what the pixels *mean* but how
//! they *change*: interactions replace scenes, loading reveals elements one
//! by one (producing the suggester's candidate frames), and decorations
//! (clock, cursor, spinner) change without any user-relevant meaning —
//! exactly the nuisances masks and tolerances exist for.

use serde::{Deserialize, Serialize};

use interlag_video::frame::Rect;

/// One rectangular UI element with a reproducible texture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Element {
    /// Where the element is drawn.
    pub rect: Rect,
    /// Texture seed; different seeds look entirely different.
    pub seed: u64,
    /// Hidden elements are skipped by the renderer; progressive loading
    /// reveals them one by one.
    pub visible: bool,
}

impl Element {
    /// Creates a visible element.
    pub fn new(rect: Rect, seed: u64) -> Self {
        Element { rect, seed, visible: true }
    }

    /// Creates a hidden element (revealed later by a
    /// [`SceneUpdate::ShowElement`]).
    pub fn hidden(rect: Rect, seed: u64) -> Self {
        Element { rect, seed, visible: false }
    }
}

/// The current contents of the screen below the status bar.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Scene {
    /// Background texture seed.
    pub background_seed: u64,
    /// Elements drawn over the background, in order.
    pub elements: Vec<Element>,
    /// A blinking text cursor is visible (on-screen keyboard open).
    pub cursor: bool,
    /// An indeterminate spinner animation is running.
    pub spinner: bool,
    /// Extra per-animation-frame CPU cost while the spinner runs (game
    /// simulation + draw work). When `(ui_render_cycles +
    /// animation_load) / f` exceeds the animation frame period, frames
    /// drop — *jank* (§VI future work).
    #[serde(default)]
    pub animation_load: u64,
}

impl Scene {
    /// Creates a scene with only a background.
    pub fn new(background_seed: u64) -> Self {
        Scene {
            background_seed,
            elements: Vec::new(),
            cursor: false,
            spinner: false,
            animation_load: 0,
        }
    }

    /// Adds an element (builder style).
    pub fn with_element(mut self, element: Element) -> Self {
        self.elements.push(element);
        self
    }

    /// Turns the cursor on (builder style).
    pub fn with_cursor(mut self) -> Self {
        self.cursor = true;
        self
    }

    /// Turns the spinner on (builder style).
    pub fn with_spinner(mut self) -> Self {
        self.spinner = true;
        self
    }

    /// Sets the per-frame animation cost (builder style); implies heavy
    /// on-screen animation like a game loop.
    pub fn with_animation_load(mut self, cycles: u64) -> Self {
        self.animation_load = cycles;
        self
    }

    /// Number of currently visible elements.
    pub fn visible_elements(&self) -> usize {
        self.elements.iter().filter(|e| e.visible).count()
    }

    /// Applies an update, returning `true` if the visible contents
    /// changed (the screen needs a redraw).
    pub fn apply(&mut self, update: &SceneUpdate) -> bool {
        match update {
            SceneUpdate::Replace(scene) => {
                if self == scene.as_ref() {
                    return false;
                }
                *self = (**scene).clone();
                true
            }
            SceneUpdate::ShowElement(i) => match self.elements.get_mut(*i) {
                Some(e) if !e.visible => {
                    e.visible = true;
                    true
                }
                _ => false,
            },
            SceneUpdate::HideElement(i) => match self.elements.get_mut(*i) {
                Some(e) if e.visible => {
                    e.visible = false;
                    true
                }
                _ => false,
            },
            SceneUpdate::SetCursor(on) => {
                let changed = self.cursor != *on;
                self.cursor = *on;
                changed
            }
            SceneUpdate::SetSpinner(on) => {
                let changed = self.spinner != *on;
                self.spinner = *on;
                changed
            }
            SceneUpdate::Nop => false,
        }
    }
}

impl Default for Scene {
    /// The home screen every recording starts from (the paper resets the
    /// device to a known state before each recording).
    fn default() -> Self {
        Scene::new(0x0405_0607)
    }
}

/// A mutation of the visible scene, applied when a task phase completes.
///
/// `Replace` boxes its scene to keep task specs small; scenes are built
/// once per workload script.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SceneUpdate {
    /// Show an entirely different screen (app launch, page navigation).
    Replace(Box<Scene>),
    /// Reveal element `i` (one step of progressive loading).
    ShowElement(usize),
    /// Hide element `i` (dismiss a dialog or progress bar).
    HideElement(usize),
    /// Open/close the on-screen keyboard cursor.
    SetCursor(bool),
    /// Start/stop an indeterminate spinner.
    SetSpinner(bool),
    /// No visible effect (background work).
    Nop,
}

impl SceneUpdate {
    /// Convenience constructor for [`SceneUpdate::Replace`].
    pub fn replace(scene: Scene) -> Self {
        SceneUpdate::Replace(Box::new(scene))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect() -> Rect {
        Rect::new(0, 10, 20, 20)
    }

    #[test]
    fn show_element_reports_change_once() {
        let mut s = Scene::new(1).with_element(Element::hidden(rect(), 7));
        assert_eq!(s.visible_elements(), 0);
        assert!(s.apply(&SceneUpdate::ShowElement(0)));
        assert_eq!(s.visible_elements(), 1);
        assert!(!s.apply(&SceneUpdate::ShowElement(0)), "already visible");
        assert!(!s.apply(&SceneUpdate::ShowElement(9)), "out of range is a no-op");
    }

    #[test]
    fn replace_detects_no_change() {
        let mut s = Scene::new(1);
        let same = SceneUpdate::replace(Scene::new(1));
        assert!(!s.apply(&same));
        let different = SceneUpdate::replace(Scene::new(2));
        assert!(s.apply(&different));
        assert_eq!(s.background_seed, 2);
    }

    #[test]
    fn cursor_and_spinner_toggles() {
        let mut s = Scene::new(1);
        assert!(s.apply(&SceneUpdate::SetCursor(true)));
        assert!(!s.apply(&SceneUpdate::SetCursor(true)));
        assert!(s.apply(&SceneUpdate::SetSpinner(true)));
        assert!(s.apply(&SceneUpdate::SetSpinner(false)));
        assert!(!s.apply(&SceneUpdate::Nop));
    }

    #[test]
    fn hide_element_roundtrip() {
        let mut s = Scene::new(1).with_element(Element::new(rect(), 7));
        assert!(s.apply(&SceneUpdate::HideElement(0)));
        assert_eq!(s.visible_elements(), 0);
        assert!(!s.apply(&SceneUpdate::HideElement(0)));
    }

    #[test]
    fn default_scene_is_home_screen() {
        let s = Scene::default();
        assert_eq!(s, Scene::default());
        assert!(!s.cursor && !s.spinner);
    }
}

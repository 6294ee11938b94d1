//! Property test for partial repaints: redecorating a frame must give
//! the same pixels as rendering it from scratch.
//!
//! Every generated scene carries one visible element over each
//! decoration rect (clock, cursor, spinner) and, often, more over the
//! status bar and anywhere else — the cases where a repaint clipped to a
//! decoration rect must redraw the scene on top of the decoration in the
//! right order.

use interlag_device::render::{DecorationState, Renderer, ScreenConfig};
use interlag_device::scene::{Element, Scene};
use interlag_video::frame::Rect;
use proptest::prelude::*;

/// An element whose rect starts near `anchor` (up to 10 px before or
/// after its origin) with a random size; it may spill off the screen.
fn element_near(anchor: Rect) -> impl Strategy<Value = (Rect, u64)> {
    (0u32..21, 0u32..21, 1u32..30, 1u32..30, proptest::num::u64::ANY).prop_map(
        move |(dx, dy, w, h, seed)| {
            let x0 = (anchor.x0 + dx).saturating_sub(10);
            let y0 = (anchor.y0 + dy).saturating_sub(10);
            (Rect::new(x0, y0, w, h), seed)
        },
    )
}

fn decoration() -> impl Strategy<Value = DecorationState> {
    (0u64..4, 0u8..2, 0u64..4).prop_map(|(clock_seconds, cursor_on, spinner_frame)| {
        DecorationState { clock_seconds, cursor_on: cursor_on == 1, spinner_frame }
    })
}

fn scene() -> impl Strategy<Value = Scene> {
    let c = ScreenConfig::default();
    let status_bar = Rect::new(0, 0, c.width, c.status_bar_rows);
    let anywhere = Rect::new(0, 0, c.width, c.height);
    let extra = prop_oneof![element_near(status_bar), element_near(anywhere)];
    (
        (element_near(c.clock_rect), element_near(c.cursor_rect), element_near(c.spinner_rect)),
        prop::collection::vec((extra, 0u8..2), 0..6),
        proptest::num::u64::ANY,
        0u8..2,
        0u8..2,
    )
        .prop_map(move |(overlapping, extra, background, cursor, spinner)| {
            let mut s = Scene::new(background);
            for (rect, seed) in [overlapping.0, overlapping.1, overlapping.2] {
                s = s.with_element(Element::new(rect, seed));
            }
            for ((rect, seed), visible) in extra {
                let el = Element::new(rect, seed);
                s = s.with_element(if visible == 1 { el } else { Element::hidden(rect, seed) });
            }
            s.cursor = cursor == 1;
            s.spinner = spinner == 1;
            s
        })
}

proptest! {
    #[test]
    fn redecorating_equals_a_full_render(s in scene(), d0 in decoration(), d1 in decoration()) {
        let r = Renderer::default();
        let prev = r.render(&s, &d0);
        let redrawn = r.redecorate(&prev, &s, &d0, &d1);
        let full = r.render(&s, &d1);
        prop_assert_eq!(redrawn.pixels(), full.pixels());
        prop_assert_eq!(redrawn.digest(), full.digest());
    }
}

#[test]
fn elements_over_every_decoration_rect_are_redrawn_on_top() {
    let c = ScreenConfig::default();
    let r = Renderer::default();
    // Each element covers one decoration rect entirely.
    let s = Scene::new(3)
        .with_element(Element::new(Rect::new(40, 0, 32, 10), 1))
        .with_element(Element::new(Rect::new(0, 104, 12, 16), 2))
        .with_element(Element::new(Rect::new(28, 52, 16, 16), 3))
        .with_cursor()
        .with_spinner();
    let d0 = DecorationState { clock_seconds: 1, cursor_on: true, spinner_frame: 1 };
    let d1 = DecorationState { clock_seconds: 2, cursor_on: false, spinner_frame: 2 };
    let prev = r.render(&s, &d0);
    let redrawn = r.redecorate(&prev, &s, &d0, &d1);
    assert_eq!(redrawn, r.render(&s, &d1));
    // The element hides the clock, so the clock tick changes nothing.
    assert_eq!(prev.crop(c.clock_rect), redrawn.crop(c.clock_rect));
}

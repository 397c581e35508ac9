// Fixture: serve-coverage test file, scanned under crates/qsim/tests/.
// Names serve_pinned but not serve_orphan; calls Scenario::pinned_knob
// but only mentions orphan_knob; calls an unrelated `Other::new`.

#[test]
fn serve_pinned_conserves_queries() {
    assert_eq!(serve_pinned(10, 0), 10);
    let s = Scenario { queries: &10 }.pinned_knob();
    // s.orphan_knob() stays uncalled.
    let orphan_knob = s;
    let _ = orphan_knob;
    let _ = Other::new(&10);
    let _ = MyScenario::new(&10);
}

// Fixture: serve-coverage sources, scanned under crates/qsim/src/.
// `serve_pinned` is named by the test fixture; `serve_orphan` is not
// (the rule's positive case); `serve_waved` carries an allow. Of the
// `Scenario` methods, `pinned_knob` is called by the test fixture,
// `orphan_knob` only appears there in a comment and as a bare word,
// and the private helper is not an entry point. The associated `new`
// (no `self`, parameters on the next line) is called there only as
// `Other::new(`, which must not pin `Scenario::new`.

pub fn serve_pinned(queries: usize, seed: u64) -> usize {
    queries.wrapping_add(seed as usize)
}

pub fn serve_orphan(queries: usize, seed: u64) -> usize {
    queries.wrapping_mul(seed as usize)
}

// simlint: allow(serve-coverage) -- thin wrapper over serve_pinned; pinned transitively
pub fn serve_waved(queries: usize, seed: u64) -> usize {
    serve_pinned(queries, seed)
}

pub struct Scenario<'a> {
    queries: &'a usize,
}

impl<'a> Scenario<'a> {
    pub fn new(
        queries: &'a usize,
    ) -> Self {
        Self { queries }
    }

    pub fn pinned_knob(self) -> Self {
        self
    }

    pub fn orphan_knob(self) -> Self {
        self.helper()
    }

    fn helper(self) -> Self {
        self
    }
}

//! Fixture for R4 (no-unwrap-core): the `sanitizer` path component
//! puts this file in the race detector, one of the four crates that
//! joined the R4 list at zero sites, where bare `unwrap`/`expect` are
//! banned outside test code.

fn r4_unwrap(v: Option<u32>) -> u32 {
    v.unwrap() // R4: no-unwrap-core
}

fn r4_expect(v: Option<u32>) -> u32 {
    v.expect("boom") // R4: no-unwrap-core
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        assert_eq!(Some(1u32).unwrap(), 1);
    }
}

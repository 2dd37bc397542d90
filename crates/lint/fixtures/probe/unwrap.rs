//! Fixture for R4 (no-unwrap-core): the `probe` path component puts
//! this file in the recorder every layer reports through, which joined
//! the R4 list once its counters were reached by the entry API and its
//! JSON reader by patterns; bare `unwrap`/`expect` are banned outside
//! test code.

fn r4_unwrap(counts: &std::collections::BTreeMap<String, u64>, name: &str) -> u64 {
    *counts.get(name).unwrap() // R4: no-unwrap-core
}

fn r4_expect(rest: &str) -> char {
    rest.chars().next().expect("a string tail holds a char") // R4: no-unwrap-core
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        assert_eq!(Some(1u64).unwrap(), 1);
    }
}

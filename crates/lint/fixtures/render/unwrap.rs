//! Fixture for R4 (no-unwrap-core): the `render` path component puts
//! this file in the software render stack, which joined the R4 list
//! once its product sites were rewritten to reads that cannot fail and
//! `panic!`-free invariants; bare `unwrap`/`expect` are banned outside
//! test code.

fn r4_unwrap(bytes: &[u8]) -> u32 {
    u32::from_be_bytes(bytes.try_into().unwrap()) // R4: no-unwrap-core
}

fn r4_expect(held: Option<Vec<u8>>) -> Vec<u8> {
    held.expect("a rank that owns rows holds their buffer") // R4: no-unwrap-core
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        assert_eq!(Some(1u32).unwrap(), 1);
    }
}

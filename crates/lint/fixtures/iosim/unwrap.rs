//! Fixture for R4 (no-unwrap-core): the `iosim` path component puts
//! this file in the post hoc I/O paths, which joined the R4 list once
//! their readers took fixed-size arrays that cannot fail to convert and
//! checked every count against the bytes left; bare `unwrap`/`expect`
//! are banned outside test code.

fn r4_unwrap(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().unwrap()) // R4: no-unwrap-core
}

fn r4_expect(piece: Option<Vec<f64>>) -> Vec<f64> {
    piece.expect("every rank wrote its piece") // R4: no-unwrap-core
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        assert_eq!(Some(1u64).unwrap(), 1);
    }
}

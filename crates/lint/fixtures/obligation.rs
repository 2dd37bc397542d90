//! Fixture for R6 (obligation): a publish window whose guard is not
//! bound, beside the bound shapes the real call sites use.

/// Unbound guard: drops (and closes the publish window) at the end of
/// the statement, before anything could be checked against it.
fn r6_unbound_publish(data: &u32) {
    datamodel::publish_dataset(data, "fixture"); // R6: obligation
}

/// Bound guards in all the shapes the real call sites use: clean.
fn r6_bound_publish(data: &u32, active: bool) {
    let _publish = datamodel::publish_dataset(data, "fixture");
    let _window = if active {
        Some(datamodel::publish_dataset(data, "fixture"))
    } else {
        None
    };
}

#[cfg(test)]
mod tests {
    /// Test code is exempt from R6 like every pairing rule.
    fn unpaired_in_tests() {
        datamodel::publish_dataset(&1, "fixture");
    }
}

//! Fixture for R6 (obligation): acquire/release calls that do not
//! pair inside one function. Mentions QueryHandle so the join leg is
//! armed, exactly like the real interactive-endpoint code.

struct QueryHandle;

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

/// A client joined but never released.
fn r6_join_without_leave(handle: &QueryHandle) {
    handle.join(7, query(), "fixture"); // R6: obligation
}

/// Join paired with leave: clean. Thread-style `.join()` (no
/// arguments) never counts as a client join.
fn r6_join_then_leave(handle: &QueryHandle, worker: std::thread::JoinHandle<()>) {
    handle.join(7, query(), "fixture");
    handle.leave(7);
    let _ = worker.join();
}

#[cfg(test)]
mod tests {
    /// Test code is exempt from R6 like every pairing rule.
    fn unpaired_in_tests(handle: &super::QueryHandle) {
        datamodel::publish_dataset(&1, "fixture");
        handle.join(7, query(), "fixture");
    }
}

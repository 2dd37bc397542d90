//! Zero-copy publish windows for the happens-before sanitizer.
//!
//! An endpoint that stages a dataset zero-copy (Catalyst, Libsim,
//! ADIOS, GLEAN) holds borrowed views of the simulation's arrays for
//! the duration of a marshal/execute window. While that window is
//! open, any mutation of a shared array by a rank without a
//! happens-before edge to the window's close is a use-after-publish
//! hazard. [`publish_dataset`] opens the window on every shadowed
//! array reachable from a [`DataSet`]; dropping the returned
//! [`PublishGuard`] closes it and records the release clock.
//!
//! Everything here is free when the sanitizer is inactive: arrays
//! carry no shadows, so the guard holds an empty vector.

use std::sync::Arc;

use crate::dataset::DataSet;

/// Open publish windows on every shadowed array in `data`, attributed
/// to `endpoint` (e.g. `"catalyst"`). The windows close when the
/// returned guard drops.
///
/// Walks multiblock structures leaf-by-leaf, covering both point and
/// cell attributes, so the guard protects exactly the arrays an
/// endpoint can reach through zero-copy views.
pub fn publish_dataset(data: &DataSet, endpoint: &str) -> PublishGuard {
    let mut open = Vec::new();
    if sanitizer::active() {
        for leaf in data.leaves() {
            for attrs in [leaf.point_data(), leaf.cell_data()].into_iter().flatten() {
                for array in attrs.iter() {
                    if let Some(shadow) = array.shadow() {
                        if let Some(pub_id) = shadow.begin_publish(endpoint) {
                            open.push((Arc::clone(shadow), pub_id));
                        }
                    }
                }
            }
        }
    }
    PublishGuard { open }
}

/// RAII token for a set of open publish windows; closing happens on
/// drop so early returns and panics still release the windows.
#[must_use = "dropping the guard closes the publish window"]
pub struct PublishGuard {
    open: Vec<(Arc<sanitizer::Shadow>, u64)>,
}

impl PublishGuard {
    /// How many shadowed arrays this guard is protecting.
    pub fn len(&self) -> usize {
        self.open.len()
    }

    /// True when no shadowed arrays were found (sanitizer off, or the
    /// dataset holds only owned storage).
    pub fn is_empty(&self) -> bool {
        self.open.is_empty()
    }
}

impl Drop for PublishGuard {
    fn drop(&mut self) {
        for (shadow, pub_id) in self.open.drain(..) {
            shadow.end_publish(pub_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::DataArray;
    use crate::extent::Extent;
    use crate::grids::ImageData;

    fn shared_image() -> DataSet {
        let whole = Extent::whole([2, 2, 1]);
        let mut img = ImageData::new(whole, whole);
        let n = img.num_points();
        img.point_data
            .insert(DataArray::shared("u", 1, Arc::new(vec![0.0f64; n])));
        DataSet::Image(img)
    }

    #[test]
    fn guard_is_empty_when_sanitizer_off() {
        let data = shared_image();
        let guard = publish_dataset(&data, "test");
        assert!(guard.is_empty());
    }

    #[test]
    fn guard_opens_and_closes_windows() {
        let session = sanitizer::Session::new(1, sanitizer::Mode::Collect);
        let _ctx = sanitizer::install(Arc::clone(&session), 0);
        let data = shared_image();
        let array = data.point_data().unwrap().get("u").unwrap();
        let shadow = array.shadow().expect("shared array should carry a shadow");
        {
            let guard = publish_dataset(&data, "test");
            assert_eq!(guard.len(), 1);
            assert_eq!(shadow.open_publishes(), 1);
        }
        assert_eq!(shadow.open_publishes(), 0);
        assert_eq!(session.finish_world(), 0);
    }
}

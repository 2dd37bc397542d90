//! The data adaptor: the simulation-side half of the SENSEI interface.

use datamodel::DataSet;

use crate::field::Field;

/// Whether an array lives on points or cells.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Association {
    /// Node-centered data.
    Point,
    /// Cell-centered data.
    Cell,
}

impl Association {
    /// The other association.
    pub(crate) fn other(self) -> Self {
        match self {
            Association::Point => Association::Cell,
            Association::Cell => Association::Point,
        }
    }
}

impl std::fmt::Display for Association {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Association::Point => write!(f, "point"),
            Association::Cell => write!(f, "cell"),
        }
    }
}

/// Why a data adaptor could not attach an array
/// ([`DataAdaptor::add_array`]).
///
/// The variants separate "you asked for something I don't have"
/// ([`AdaptorError::UnknownArray`]) from "you asked the wrong way"
/// ([`AdaptorError::WrongAssociation`]) from "I have it but cannot
/// express it on that mesh" ([`AdaptorError::LayoutUnsupported`]), so
/// infrastructures can report *why* a field went missing instead of
/// silently skipping it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdaptorError {
    /// No array of this name exists under the requested association.
    UnknownArray {
        /// Requested array name.
        name: String,
        /// Requested association.
        assoc: Association,
    },
    /// The array exists, but under the other association.
    WrongAssociation {
        /// Requested array name.
        name: String,
        /// Association the caller asked for.
        requested: Association,
        /// Association the adaptor actually provides the array under.
        available: Association,
    },
    /// The adaptor cannot attach this array to the given mesh layout
    /// (e.g. a leaf array pushed at a multiblock root).
    LayoutUnsupported {
        /// Requested array name.
        name: String,
        /// What about the layout was unsupported.
        detail: String,
    },
    /// The array exists but its bytes live in a different memory space
    /// than the executing code, and no explicit transfer
    /// (`move_to`/`snapshot_in`) was made. Raised through
    /// [`datamodel::AccessError`] by the space-checked accessors.
    WrongSpace {
        /// Requested array name.
        name: String,
        /// Space the array's bytes live in.
        have: String,
        /// Space the accessing code executes in.
        want: String,
    },
}

impl From<datamodel::AccessError> for AdaptorError {
    fn from(err: datamodel::AccessError) -> Self {
        match err {
            datamodel::AccessError::WrongSpace { array, have, want } => AdaptorError::WrongSpace {
                name: array,
                have: have.to_string(),
                want: want.to_string(),
            },
            datamodel::AccessError::TypeMismatch { array, want } => {
                AdaptorError::LayoutUnsupported {
                    name: array,
                    detail: format!("stored scalar type is not {want}"),
                }
            }
            datamodel::AccessError::LayoutUnsupported { array, detail } => {
                AdaptorError::LayoutUnsupported {
                    name: array,
                    detail,
                }
            }
        }
    }
}

impl std::fmt::Display for AdaptorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptorError::UnknownArray { name, assoc } => {
                write!(f, "unknown {assoc} array '{name}'")
            }
            AdaptorError::WrongAssociation {
                name,
                requested,
                available,
            } => write!(
                f,
                "array '{name}' requested as {requested} data but provided as {available} data"
            ),
            AdaptorError::LayoutUnsupported { name, detail } => {
                write!(f, "cannot attach array '{name}': {detail}")
            }
            AdaptorError::WrongSpace { name, have, want } => write!(
                f,
                "array '{name}' lives in {have} but was accessed from {want} \
                 without an explicit transfer"
            ),
        }
    }
}

impl std::error::Error for AdaptorError {}

/// `&self` as the `&dyn DataAdaptor` a [`Field`] keeps to ask for the
/// ghost flags later, which a default method of [`DataAdaptor`] cannot
/// write itself (`Self` may be unsized there). Every sized adaptor has
/// it through the blanket impl, so no other crate names it, and
/// `DataAdaptor` may take it as a crate-private supertrait.
pub(crate) trait AsDyn {
    fn as_dyn(&self) -> &dyn DataAdaptor;
}

impl<T: DataAdaptor> AsDyn for T {
    fn as_dyn(&self) -> &dyn DataAdaptor {
        self
    }
}

/// Simulation-side adaptor: maps the simulation's native structures into
/// the shared data model **on demand**.
///
/// Implementations should be lazy and zero-copy: [`DataAdaptor::mesh`]
/// returns structure only; arrays are attached when an analysis asks for
/// them via [`DataAdaptor::add_array`]. When no analysis is enabled the
/// bridge never calls either, so instrumentation overhead is near zero
/// (the paper's §3.2 design point).
#[allow(private_bounds)]
pub trait DataAdaptor: AsDyn {
    /// Simulated physical time of the current step.
    fn time(&self) -> f64;

    /// Current timestep index.
    fn step(&self) -> u64;

    /// The mesh **structure** (no attribute arrays).
    fn mesh(&self) -> DataSet;

    /// Names of arrays the simulation can provide for `assoc`.
    fn array_names(&self, assoc: Association) -> Vec<String>;

    /// Attach the named array to `mesh` (zero-copy when layouts allow).
    /// A typed [`AdaptorError`] says why an array could not be attached,
    /// so consumers can surface the cause instead of silently skipping.
    fn add_array(
        &self,
        mesh: &mut DataSet,
        assoc: Association,
        name: &str,
    ) -> Result<(), AdaptorError>;

    /// Convenience: mesh with every available point and cell array
    /// attached. Infrastructures that snapshot everything (ADIOS, I/O)
    /// use this; targeted analyses should pull only what they need.
    fn full_mesh(&self) -> DataSet {
        let mut mesh = self.mesh();
        for assoc in [Association::Point, Association::Cell] {
            for name in self.array_names(assoc) {
                if let Err(err) = self.add_array(&mut mesh, assoc, &name) {
                    debug_assert!(false, "advertised array '{name}' was not provided: {err}");
                    let _ = err;
                }
            }
        }
        mesh
    }

    /// The step's `array` under `assoc`, populated and viewed once for
    /// every reader: see [`Field`]. The default derives it afresh from
    /// [`DataAdaptor::mesh`] and [`DataAdaptor::add_array`] on each
    /// call; inside [`crate::Bridge::execute`] the step's analyses share
    /// one per `(assoc, array)`.
    fn field(&self, assoc: Association, array: &str) -> Field<'_> {
        Field::derive(self.as_dyn(), assoc, array)
    }

    /// Release references to simulation data after the bridge finishes a
    /// step. Default: nothing (adaptors built per step need no release).
    ///
    /// This call is the happens-before edge the sanitizer keys on: the
    /// bridge's publish window over the adaptor's arrays closes right
    /// after it, so simulation writes that wait for `Bridge::execute`
    /// to return are ordered after every staged zero-copy view.
    fn release_data(&self) {}
}

/// A ready-made adaptor wrapping an already-constructed [`DataSet`]:
/// used by tests, examples, and the endpoint side of staging transports
/// (which receive materialized data rather than live simulation state).
pub struct InMemoryAdaptor {
    data: DataSet,
    time: f64,
    step: u64,
}

impl InMemoryAdaptor {
    /// Wrap `data` at the given time/step.
    pub fn new(data: DataSet, time: f64, step: u64) -> Self {
        InMemoryAdaptor { data, time, step }
    }

    /// Classify a lookup miss: does the array live under the other
    /// association, or not at all?
    fn missing(&self, assoc: Association, name: &str) -> AdaptorError {
        if self.array_names(assoc.other()).iter().any(|n| n == name) {
            AdaptorError::WrongAssociation {
                name: name.to_string(),
                requested: assoc,
                available: assoc.other(),
            }
        } else {
            AdaptorError::UnknownArray {
                name: name.to_string(),
                assoc,
            }
        }
    }
}

impl DataAdaptor for InMemoryAdaptor {
    fn time(&self) -> f64 {
        self.time
    }

    fn step(&self) -> u64 {
        self.step
    }

    fn mesh(&self) -> DataSet {
        // Structure only: each leaf's geometry, built bare.
        fn bare(ds: &DataSet) -> DataSet {
            use datamodel::Attributes;
            match ds {
                DataSet::Image(g) => DataSet::Image(datamodel::ImageData {
                    point_data: Attributes::new(),
                    cell_data: Attributes::new(),
                    ..*g
                }),
                DataSet::Rectilinear(g) => DataSet::Rectilinear(datamodel::RectilinearGrid {
                    x: g.x.clone(),
                    y: g.y.clone(),
                    z: g.z.clone(),
                    point_data: Attributes::new(),
                    cell_data: Attributes::new(),
                    ..*g
                }),
                DataSet::Unstructured(g) => DataSet::Unstructured(datamodel::UnstructuredGrid {
                    points: g.points.clone(),
                    connectivity: g.connectivity.clone(),
                    offsets: g.offsets.clone(),
                    cell_types: g.cell_types.clone(),
                    point_data: Attributes::new(),
                    cell_data: Attributes::new(),
                }),
                DataSet::Multi(m) => {
                    let mut out = datamodel::MultiBlock::with_slots(m.num_slots());
                    for i in 0..m.num_slots() {
                        if let Some(b) = m.block(i) {
                            out.set(i, bare(b));
                        }
                    }
                    DataSet::Multi(out)
                }
            }
        }
        bare(&self.data)
    }

    fn array_names(&self, assoc: Association) -> Vec<String> {
        // Union over leaves so a multiblock adaptor (a rank carrying
        // several mesh pieces) advertises every array any leaf holds.
        let mut names: Vec<String> = Vec::new();
        for leaf in self.data.leaves() {
            let attrs = match assoc {
                Association::Point => leaf.point_data(),
                Association::Cell => leaf.cell_data(),
            };
            for n in attrs.map(|a| a.names()).unwrap_or_default() {
                if !names.iter().any(|x| x == n) {
                    names.push(n.to_string());
                }
            }
        }
        names
    }

    fn add_array(
        &self,
        mesh: &mut DataSet,
        assoc: Association,
        name: &str,
    ) -> Result<(), AdaptorError> {
        // Clone is cheap for shared (zero-copy) buffers: it bumps a
        // refcount per buffer rather than copying elements.
        fn attach(
            leaf: &mut DataSet,
            assoc: Association,
            name: &str,
            array: datamodel::DataArray,
        ) -> Result<(), AdaptorError> {
            match (leaf, assoc) {
                (DataSet::Image(g), Association::Point) => g.point_data.insert(array),
                (DataSet::Image(g), Association::Cell) => g.cell_data.insert(array),
                (DataSet::Rectilinear(g), Association::Point) => g.point_data.insert(array),
                (DataSet::Rectilinear(g), Association::Cell) => g.cell_data.insert(array),
                (DataSet::Unstructured(g), Association::Point) => g.point_data.insert(array),
                (DataSet::Unstructured(g), Association::Cell) => g.cell_data.insert(array),
                (DataSet::Multi(_), _) => {
                    return Err(AdaptorError::LayoutUnsupported {
                        name: name.to_string(),
                        detail: "target leaf is a multiblock, not a grid".to_string(),
                    })
                }
            }
            Ok(())
        }
        let lookup = |leaf: &DataSet| {
            let attrs = match assoc {
                Association::Point => leaf.point_data(),
                Association::Cell => leaf.cell_data(),
            };
            attrs.and_then(|a| a.get(name)).cloned()
        };
        match (&self.data, mesh) {
            // Multiblock: attach slot-by-slot so each leaf of the target
            // receives its own leaf's array, never a sibling's.
            (DataSet::Multi(src), DataSet::Multi(dst)) => {
                let mut attached = 0usize;
                let mut first_err = None;
                for i in 0..src.num_slots() {
                    if let (Some(s), Some(d)) = (src.block(i), dst.block_mut(i)) {
                        if let Some(array) = lookup(s) {
                            match attach(d, assoc, name, array) {
                                Ok(()) => attached += 1,
                                Err(e) => first_err = first_err.or(Some(e)),
                            }
                        }
                    }
                }
                if attached > 0 {
                    // A partially-present array (some leaves hold it) is
                    // attached wherever it exists, matching multiblock
                    // semantics where blocks differ.
                    Ok(())
                } else if let Some(e) = first_err {
                    Err(e)
                } else {
                    Err(self.missing(assoc, name))
                }
            }
            (src, dst) => match lookup(src) {
                Some(array) => attach(dst, assoc, name, array),
                None => Err(self.missing(assoc, name)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamodel::{DataArray, Extent, ImageData};
    use std::sync::Arc;

    fn sample() -> InMemoryAdaptor {
        let e = Extent::whole([3, 3, 3]);
        let mut g = ImageData::new(e, e);
        g.add_point_array(DataArray::shared(
            "data",
            1,
            Arc::new((0..27).map(|i| i as f64).collect()),
        ));
        g.add_cell_array(DataArray::owned("rho", 1, vec![1.0f64; 8]));
        InMemoryAdaptor::new(DataSet::Image(g), 1.5, 3)
    }

    #[test]
    fn mesh_is_structure_only() {
        let a = sample();
        let mesh = a.mesh();
        assert_eq!(mesh.point_data().unwrap().len(), 0);
        assert_eq!(mesh.cell_data().unwrap().len(), 0);
        assert_eq!(mesh.num_points(), 27);
    }

    #[test]
    fn lazy_array_attachment() {
        let a = sample();
        let mut mesh = a.mesh();
        assert!(a.add_array(&mut mesh, Association::Point, "data").is_ok());
        assert_eq!(mesh.point_data().unwrap().len(), 1);
        assert_eq!(
            a.add_array(&mut mesh, Association::Point, "nope"),
            Err(AdaptorError::UnknownArray {
                name: "nope".into(),
                assoc: Association::Point,
            })
        );
    }

    #[test]
    fn wrong_association_is_distinguished_from_unknown() {
        // "rho" exists as cell data; asking for it as point data names
        // the association the adaptor actually has.
        let a = sample();
        let mut mesh = a.mesh();
        let err = a
            .add_array(&mut mesh, Association::Point, "rho")
            .unwrap_err();
        assert_eq!(
            err,
            AdaptorError::WrongAssociation {
                name: "rho".into(),
                requested: Association::Point,
                available: Association::Cell,
            }
        );
        assert!(err.to_string().contains("cell data"), "{err}");
    }

    #[test]
    fn attached_array_stays_zero_copy() {
        let a = sample();
        let mut mesh = a.mesh();
        a.add_array(&mut mesh, Association::Point, "data").unwrap();
        assert!(mesh
            .point_data()
            .unwrap()
            .get("data")
            .unwrap()
            .is_zero_copy());
    }

    #[test]
    fn full_mesh_has_everything() {
        let a = sample();
        let m = a.full_mesh();
        assert_eq!(m.point_data().unwrap().len(), 1);
        assert_eq!(m.cell_data().unwrap().len(), 1);
        assert_eq!(a.time(), 1.5);
        assert_eq!(a.step(), 3);
    }

    #[test]
    fn multiblock_adaptor_attaches_per_slot() {
        // Two leaves with same-named arrays but different values: each
        // target leaf must receive its own leaf's array, not a sibling's.
        let e = Extent::whole([2, 1, 1]);
        let mut mb = datamodel::MultiBlock::new();
        for i in 0..2 {
            let mut g = ImageData::new(e, e);
            g.add_point_array(DataArray::owned("data", 1, vec![i as f64; 2]));
            mb.push(DataSet::Image(g));
        }
        let a = InMemoryAdaptor::new(DataSet::Multi(mb), 0.0, 0);
        assert_eq!(a.array_names(Association::Point), vec!["data".to_string()]);
        let m = a.full_mesh();
        let leaves: Vec<_> = m.leaves().collect();
        assert_eq!(leaves.len(), 2);
        for (i, leaf) in leaves.iter().enumerate() {
            let arr = leaf.point_data().unwrap().get("data").unwrap();
            assert_eq!(arr.get(0, 0), i as f64, "leaf {i} kept its own array");
        }
    }

    #[test]
    fn array_names_by_association() {
        let a = sample();
        assert_eq!(a.array_names(Association::Point), vec!["data".to_string()]);
        assert_eq!(a.array_names(Association::Cell), vec!["rho".to_string()]);
    }
}

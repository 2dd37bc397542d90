//! One step's field, as every analysis reads it. SENSEI's data adaptor
//! may keep what it hands out until `ReleaseData` (§3.2): inside
//! [`crate::Bridge::execute`] a step's analyses share one [`Field`] per
//! `(association, array)`, the step's [`Memo`], which the bridge drops
//! before [`DataAdaptor::release_data`], so no share of a step's
//! buffers outlives `execute`.

use std::borrow::Cow;
use std::cell::{Cell, OnceCell};

use datamodel::DataSet;

use crate::adaptor::{AdaptorError, Association, DataAdaptor};
use crate::analysis::{leaf_views, LeafView, ReportOnce};

/// A step's `array` under one association, as analyses read it.
pub struct Field<'a> {
    populated: Cow<'a, Populated>,
    /// The step's views, when the field is the step's; a fresh field
    /// builds them per call.
    views: Option<&'a Result<Vec<LeafView<'a>>, AdaptorError>>,
    range: Cow<'a, Cell<Option<(f64, f64)>>>,
}

/// The step's mesh with the array attached, or why it could not be.
#[derive(Clone)]
struct Populated {
    assoc: Association,
    array: String,
    mesh: Result<DataSet, AdaptorError>,
}

impl Populated {
    fn derive<D: DataAdaptor + ?Sized>(data: &D, assoc: Association, array: &str) -> Self {
        let mut mesh = data.mesh();
        let mesh = data.add_array(&mut mesh, assoc, array).map(|()| {
            // Ghost flags are optional: a producer without them keeps
            // every tuple.
            let _ = data.add_array(&mut mesh, assoc, datamodel::GHOST_ARRAY_NAME);
            mesh
        });
        Populated {
            assoc,
            array: array.to_owned(),
            mesh,
        }
    }

    fn views(&self) -> Result<Vec<LeafView<'_>>, AdaptorError> {
        let mesh = self.mesh.as_ref().map_err(AdaptorError::clone)?;
        Ok(leaf_views(mesh, self.assoc, &self.array)?)
    }
}

impl Field<'_> {
    /// A field derived from `data` for one reader.
    pub(crate) fn derive<D: DataAdaptor + ?Sized>(
        data: &D,
        assoc: Association,
        array: &str,
    ) -> Field<'static> {
        Field {
            populated: Cow::Owned(Populated::derive(data, assoc, array)),
            views: None,
            range: Cow::Owned(Cell::new(None)),
        }
    }

    /// The step's mesh with the array and the producer's ghost flags
    /// attached, or the typed cause the adaptor gave for the array.
    pub fn mesh(&self) -> Result<&DataSet, &AdaptorError> {
        self.populated.mesh.as_ref()
    }

    /// [`leaf_views`] of the array over [`Field::mesh`]: every leaf
    /// carrying it, read in place from the calling thread's memory
    /// space. A missing array or one this thread cannot reach is the
    /// typed cause.
    pub fn views(&self) -> Result<Cow<'_, [LeafView<'_>]>, AdaptorError> {
        match self.views {
            Some(Ok(views)) => Ok(Cow::Borrowed(views)),
            Some(Err(err)) => Err(err.clone()),
            None => self.populated.views().map(Cow::Owned),
        }
    }

    /// [`Field::views`], or none with the cause kept in `failures`: what
    /// a reader that still joins its collectives does with a field it
    /// cannot read.
    pub fn views_or(&self, failures: &mut ReportOnce) -> Cow<'_, [LeafView<'_>]> {
        self.views().unwrap_or_else(|err| {
            failures.report(err);
            Cow::Borrowed(&[])
        })
    }

    /// Render's colour range of the field this step: empty until a
    /// frame takes it (a collective), then kept for every later frame
    /// of the step. A rank whose field is missing keeps its range too,
    /// so every rank skips the same collectives.
    pub fn range(&self) -> &Cell<Option<(f64, f64)>> {
        &self.range
    }
}

/// The fields one step's analyses share, one link per `(association,
/// array)` in first-use order. The first link lives on the bridge's
/// stack; each link's views borrow its own mesh, which is why a link is
/// only read through `&'m Memo<'m>`.
#[derive(Default)]
pub(crate) struct Memo<'m> {
    populated: OnceCell<Populated>,
    views: OnceCell<Result<Vec<LeafView<'m>>, AdaptorError>>,
    range: Cell<Option<(f64, f64)>>,
    next: OnceCell<Box<Memo<'m>>>,
}

impl<'m> Memo<'m> {
    /// The step's field for `(assoc, array)`, derived from `data` on
    /// first use. A miss is kept like a hit.
    pub(crate) fn field(
        &'m self,
        data: &dyn DataAdaptor,
        assoc: Association,
        array: &str,
    ) -> Field<'m> {
        let populated = self
            .populated
            .get_or_init(|| Populated::derive(data, assoc, array));
        if (populated.assoc, populated.array.as_str()) != (assoc, array) {
            return self
                .next
                .get_or_init(Box::default)
                .field(data, assoc, array);
        }
        Field {
            populated: Cow::Borrowed(populated),
            views: Some(self.views.get_or_init(|| populated.views())),
            range: Cow::Borrowed(&self.range),
        }
    }
}

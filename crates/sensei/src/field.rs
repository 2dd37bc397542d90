//! One step's field, as every analysis reads it. SENSEI's data adaptor
//! may keep what it hands out until `ReleaseData` (§3.2): inside
//! [`crate::Bridge::execute`] a step's analyses share one [`Field`] per
//! `(association, array)`, the step's [`Memo`], which the bridge drops
//! before [`DataAdaptor::release_data`], so no share of a step's
//! buffers outlives `execute`. The field is the mesh with the array
//! attached; the producer's ghost flags are asked for when a reader
//! first wants the kept tuples, so an infrastructure that draws every
//! point ([`Field::blocks_or`]) never causes them to be built.

use std::borrow::Cow;
use std::cell::{Cell, OnceCell};

use datamodel::{DataSet, GHOST_ARRAY_NAME};

use crate::adaptor::{AdaptorError, Association, DataAdaptor};
use crate::analysis::{leaf_views, LeafView, ReportOnce};

type Views<'a> = Result<Vec<LeafView<'a>>, AdaptorError>;

/// A step's `array` under one association, as analyses read it.
pub struct Field<'a> {
    derived: Cow<'a, Derived>,
    data: &'a dyn DataAdaptor,
    /// The step's views, kept by its memo; none for a field derived for
    /// one reader, which derives them per call.
    step: Option<&'a dyn StepViews>,
}

/// What a field derives from its adaptor.
#[derive(Clone)]
struct Derived {
    assoc: Association,
    array: String,
    /// The mesh with the array attached, or why it could not be.
    mesh: Result<DataSet, AdaptorError>,
    /// A mesh with the array and the ghost flags, on first demand; none
    /// where the producer has no flags, so every tuple is kept.
    ghosted: OnceCell<Option<DataSet>>,
    range: Cell<Option<(f64, f64)>>,
}

impl Derived {
    fn derive(data: &dyn DataAdaptor, assoc: Association, array: &str) -> Self {
        let mut mesh = data.mesh();
        let mesh = data.add_array(&mut mesh, assoc, array).map(|()| mesh);
        Derived {
            assoc,
            array: array.to_owned(),
            mesh,
            ghosted: OnceCell::new(),
            range: Cell::new(None),
        }
    }

    /// `mesh`, or for `kept` tuples the mesh with the flags too. The
    /// flags are asked for first, on a mesh of their own, so a block
    /// without them costs only the adaptor's answer.
    fn mesh(&self, kept: bool, data: &dyn DataAdaptor) -> Result<&DataSet, &AdaptorError> {
        let mesh = self.mesh.as_ref()?;
        if !kept {
            return Ok(mesh);
        }
        let ghosted = self.ghosted.get_or_init(|| {
            let mut ghosted = data.mesh();
            let mut attach = |name: &str| data.add_array(&mut ghosted, self.assoc, name).ok();
            attach(GHOST_ARRAY_NAME)?;
            attach(&self.array)?;
            Some(ghosted)
        });
        Ok(ghosted.as_ref().unwrap_or(mesh))
    }

    fn views(&self, kept: bool, data: &dyn DataAdaptor) -> Views<'_> {
        let mesh = self.mesh(kept, data).map_err(AdaptorError::clone)?;
        Ok(leaf_views(mesh, self.assoc, &self.array)?)
    }
}

impl<'a> Field<'a> {
    /// A field derived from `data` for one reader.
    pub(crate) fn derive(data: &'a dyn DataAdaptor, assoc: Association, array: &str) -> Self {
        let derived = Cow::Owned(Derived::derive(data, assoc, array));
        Field {
            derived,
            data,
            step: None,
        }
    }

    /// The step's mesh with the array and the producer's ghost flags
    /// attached, or the typed cause the adaptor gave for the array.
    pub fn mesh(&self) -> Result<&DataSet, &AdaptorError> {
        self.derived.mesh(true, self.data)
    }

    /// [`leaf_views`] of the array over [`Field::mesh`]: every leaf
    /// carrying it, with the producer's ghost flags, read in place from
    /// the calling thread's memory space. A missing array or one this
    /// thread cannot reach is the typed cause.
    pub fn views(&self) -> Result<Cow<'_, [LeafView<'_>]>, AdaptorError> {
        self.views_kept(true)
    }

    fn views_kept(&self, kept: bool) -> Result<Cow<'_, [LeafView<'_>]>, AdaptorError> {
        match self.step {
            Some(step) => step.views(kept).map(Cow::Borrowed),
            None => self.derived.views(kept, self.data).map(Cow::Owned),
        }
    }

    /// [`Field::views`], or none with the cause kept in `failures`: what
    /// a reader that still joins its collectives does with a field it
    /// cannot read.
    pub(crate) fn views_or(&self, failures: &mut ReportOnce) -> Cow<'_, [LeafView<'_>]> {
        reported(self.views(), failures)
    }

    /// The blocks an infrastructure draws whole: [`Field::views_or`] and
    /// the mesh it reads, without the ghost flags, which are neither
    /// attached nor built. Leaves of which none is structured are kept
    /// in `failures` too: an infrastructure draws a structured block, so
    /// this rank has nothing to draw, though it still joins the frame.
    pub fn blocks_or(
        &self,
        failures: &mut ReportOnce,
    ) -> (Option<&DataSet>, Cow<'_, [LeafView<'_>]>) {
        let views = reported(self.views_kept(false), failures);
        if !views.is_empty() && views.iter().all(|v| v.geometry.is_none()) {
            failures.report(format_args!(
                "`{}` has no structured leaf on this rank: nothing to draw",
                self.derived.array
            ));
        }
        (self.derived.mesh.as_ref().ok(), views)
    }

    /// Render's colour range of the field this step: empty until a
    /// frame takes it (a collective), then kept for every later frame
    /// of the step. A rank whose field is missing keeps its range too,
    /// so every rank skips the same collectives.
    pub fn range(&self) -> &Cell<Option<(f64, f64)>> {
        &self.derived.range
    }
}

fn reported<'v>(
    views: Result<Cow<'v, [LeafView<'v>]>, AdaptorError>,
    failures: &mut ReportOnce,
) -> Cow<'v, [LeafView<'v>]> {
    views.unwrap_or_else(|err| {
        failures.report(err);
        Cow::Borrowed(&[])
    })
}

/// The step's views, without the ghost flags and with them. The memo's
/// cells name the whole step, which a field borrowed for less cannot,
/// so a field reaches them through this trait object.
trait StepViews {
    fn views(&self, kept: bool) -> Result<&[LeafView<'_>], AdaptorError>;
}

/// The fields one step's analyses share, one link per `(association,
/// array)` in first-use order. The first link lives on the bridge's
/// stack; each link's views borrow its own meshes, which is why a link
/// is only read through `&'m Memo<'m>`, as the [`StepLink`] it keeps.
#[derive(Default)]
pub(crate) struct Memo<'m> {
    derived: OnceCell<Derived>,
    views: [OnceCell<Views<'m>>; 2],
    link: OnceCell<StepLink<'m>>,
    next: OnceCell<Box<Memo<'m>>>,
}

/// A memo link, its derivation and the step's adaptor.
struct StepLink<'m>(&'m Memo<'m>, &'m Derived, &'m dyn DataAdaptor);

impl StepViews for StepLink<'_> {
    fn views(&self, kept: bool) -> Result<&[LeafView<'_>], AdaptorError> {
        let &StepLink(memo, derived, data) = self;
        let views = memo.views[usize::from(kept)].get_or_init(|| derived.views(kept, data));
        views.as_deref().map_err(AdaptorError::clone)
    }
}

impl<'m> Memo<'m> {
    /// The step's field for `(assoc, array)`, derived from `data` on
    /// first use. A miss is kept like a hit.
    pub(crate) fn field(
        &'m self,
        data: &'m dyn DataAdaptor,
        assoc: Association,
        array: &str,
    ) -> Field<'m> {
        let derived = self
            .derived
            .get_or_init(|| Derived::derive(data, assoc, array));
        if (derived.assoc, derived.array.as_str()) != (assoc, array) {
            return self
                .next
                .get_or_init(Box::default)
                .field(data, assoc, array);
        }
        let link = self.link.get_or_init(|| StepLink(self, derived, data));
        Field {
            derived: Cow::Borrowed(derived),
            data,
            step: Some(link),
        }
    }
}

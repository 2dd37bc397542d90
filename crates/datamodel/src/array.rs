//! Typed, multi-component data arrays with zero-copy buffer sharing and
//! AoS/SoA layout support — the heart of the paper's "enhanced VTK data
//! model" (§3.2).

use std::borrow::Cow;
use std::sync::Arc;

use crate::space::{self, AccessError, MemorySpace};
use crate::MemoryFootprint;

/// Scalar element types supported by [`DataArray`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ScalarType {
    F32,
    F64,
    I32,
    I64,
    U8,
}

impl ScalarType {
    /// Size of one element in bytes.
    pub fn size_of(self) -> usize {
        match self {
            ScalarType::F32 | ScalarType::I32 => 4,
            ScalarType::F64 | ScalarType::I64 => 8,
            ScalarType::U8 => 1,
        }
    }
}

/// Element types storable in a [`DataArray`].
pub trait Scalar: Copy + PartialOrd + Send + Sync + 'static {
    /// The runtime tag for this type.
    const TYPE: ScalarType;
    /// Lossy widening to `f64` for generic analysis code.
    fn to_f64(self) -> f64;
    /// Narrowing from `f64`.
    fn from_f64(v: f64) -> Self;
}

macro_rules! impl_scalar {
    ($t:ty, $tag:expr) => {
        impl Scalar for $t {
            const TYPE: ScalarType = $tag;
            fn to_f64(self) -> f64 {
                self as f64
            }
            fn from_f64(v: f64) -> Self {
                v as $t
            }
        }
    };
}
impl_scalar!(f32, ScalarType::F32);
impl_scalar!(f64, ScalarType::F64);
impl_scalar!(i32, ScalarType::I32);
impl_scalar!(i64, ScalarType::I64);
impl_scalar!(u8, ScalarType::U8);

/// Memory layout of a multi-component array.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layout {
    /// Array-of-structures: components interleaved in one buffer
    /// (`x0 y0 z0 x1 y1 z1 …`) — VTK's historical default.
    AoS,
    /// Structure-of-arrays: one buffer per component — the layout the
    /// paper added native support for, so Fortran codes map zero-copy.
    SoA,
}

/// A buffer that is either owned or shared with the producing simulation.
///
/// `Shared` is this crate's expression of the paper's *zero-copy*
/// property: wrapping a simulation field costs one reference count, not a
/// memcpy, and the analysis reads the simulation's bytes in place.
#[derive(Clone, Debug)]
pub enum Buffer<T> {
    /// The array owns its storage (a deep copy was made).
    Owned(Vec<T>),
    /// Zero-copy view of storage owned elsewhere (e.g. by the simulation).
    Shared(Arc<Vec<T>>),
}

impl<T: Copy> Buffer<T> {
    /// Read access to the elements.
    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            Buffer::Owned(v) => v,
            Buffer::Shared(a) => a,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if this is a zero-copy view.
    pub(crate) fn is_shared(&self) -> bool {
        matches!(self, Buffer::Shared(_))
    }

    /// Mutable access; copies shared storage on first write
    /// (copy-on-write, like `Arc::make_mut`).
    pub(crate) fn to_mut(&mut self) -> &mut Vec<T> {
        if let Buffer::Shared(a) = self {
            *self = Buffer::Owned(a.as_ref().clone());
        }
        match self {
            Buffer::Owned(v) => v,
            Buffer::Shared(_) => unreachable!(),
        }
    }
}

impl<T> MemoryFootprint for Buffer<T> {
    fn heap_bytes(&self, count_shared: bool) -> usize {
        match self {
            Buffer::Owned(v) => v.capacity() * std::mem::size_of::<T>(),
            Buffer::Shared(a) => {
                if count_shared {
                    a.capacity() * std::mem::size_of::<T>()
                } else {
                    0
                }
            }
        }
    }
}

/// Component storage for one scalar type.
#[derive(Clone, Debug)]
pub(crate) struct Components<T> {
    layout: Layout,
    /// AoS: exactly one interleaved buffer. SoA: one buffer per component.
    buffers: Vec<Buffer<T>>,
    num_components: usize,
}

impl<T: Scalar> Components<T> {
    /// A deep, type- and layout-preserving copy whose buffers are
    /// `Shared` — a fresh `Arc` per buffer, so re-cloning the snapshot
    /// (for worker fan-out) costs a reference count, not a memcpy.
    fn snapshot(&self) -> Components<T> {
        Components {
            layout: self.layout,
            buffers: self
                .buffers
                .iter()
                .map(|b| Buffer::Shared(Arc::new(b.as_slice().to_vec())))
                .collect(),
            num_components: self.num_components,
        }
    }

    fn num_tuples(&self) -> usize {
        match self.layout {
            Layout::AoS => self.buffers[0].len() / self.num_components,
            Layout::SoA => self.buffers[0].len(),
        }
    }

    /// Component `comp` as one contiguous slice, when the layout has
    /// one: an SoA component buffer, or a single-component AoS buffer.
    fn contiguous(&self, comp: usize) -> Option<&[T]> {
        match self.layout {
            Layout::SoA => self.buffers.get(comp).map(|b| b.as_slice()),
            Layout::AoS if self.num_components == 1 && comp == 0 => {
                Some(self.buffers[0].as_slice())
            }
            Layout::AoS => None,
        }
    }

    fn get(&self, tuple: usize, comp: usize) -> T {
        debug_assert!(comp < self.num_components);
        match self.layout {
            Layout::AoS => self.buffers[0].as_slice()[tuple * self.num_components + comp],
            Layout::SoA => self.buffers[comp].as_slice()[tuple],
        }
    }

    fn set(&mut self, tuple: usize, comp: usize, v: T) {
        let n = self.num_components;
        match self.layout {
            Layout::AoS => self.buffers[0].to_mut()[tuple * n + comp] = v,
            Layout::SoA => self.buffers[comp].to_mut()[tuple] = v,
        }
    }
}

/// Type-erased storage.
#[derive(Clone, Debug)]
pub(crate) enum Storage {
    F32(Components<f32>),
    F64(Components<f64>),
    I32(Components<i32>),
    I64(Components<i64>),
    U8(Components<u8>),
}

macro_rules! dispatch {
    ($self:expr, $c:ident => $body:expr) => {
        match $self {
            Storage::F32($c) => $body,
            Storage::F64($c) => $body,
            Storage::I32($c) => $body,
            Storage::I64($c) => $body,
            Storage::U8($c) => $body,
        }
    };
}

/// A named, typed, multi-component array — the analogue of
/// `vtkDataArray` with the paper's SoA/AoS generality.
#[derive(Clone, Debug)]
pub struct DataArray {
    name: String,
    storage: Storage,
    /// Happens-before shadow ledger (see the `sanitizer` crate).
    /// Attached only to zero-copy-capable arrays created while a
    /// sanitizer context is active; clones share the ledger, so the
    /// sanitizer follows the array's *lineage* — the logical array
    /// the simulation publishes — not one particular allocation
    /// (copy-on-write can silently fork the storage underneath).
    shadow: Option<Arc<sanitizer::Shadow>>,
    /// Which memory space the array's buffers live in. All of an
    /// array's buffers share one placement; crossing spaces is an
    /// explicit transfer ([`DataArray::move_to`] /
    /// [`DataArray::snapshot_in`]), never a silent copy.
    space: MemorySpace,
}

impl DataArray {
    /// Build an AoS array that **owns** its (possibly interleaved) data.
    pub fn owned<T: Scalar>(name: impl Into<String>, num_components: usize, data: Vec<T>) -> Self {
        assert!(num_components > 0, "need at least one component");
        assert_eq!(
            data.len() % num_components,
            0,
            "data length {} not a multiple of component count {num_components}",
            data.len()
        );
        Self::from_components(
            name,
            Components {
                layout: Layout::AoS,
                buffers: vec![Buffer::Owned(data)],
                num_components,
            },
        )
    }

    /// Build an AoS array that **shares** the simulation's storage
    /// (zero-copy; O(1) construction).
    pub fn shared<T: Scalar>(
        name: impl Into<String>,
        num_components: usize,
        data: Arc<Vec<T>>,
    ) -> Self {
        assert!(num_components > 0, "need at least one component");
        assert_eq!(
            data.len() % num_components,
            0,
            "data length {} not a multiple of component count {num_components}",
            data.len()
        );
        let mut a = Self::from_components(
            name,
            Components {
                layout: Layout::AoS,
                buffers: vec![Buffer::Shared(data)],
                num_components,
            },
        );
        if sanitizer::active() {
            a.shadow = Some(sanitizer::Shadow::new(&a.name));
        }
        a
    }

    /// Build an SoA array from one buffer per component; buffers may mix
    /// owned and shared storage but must share a length.
    pub fn soa<T: Scalar>(name: impl Into<String>, components: Vec<Buffer<T>>) -> Self {
        assert!(!components.is_empty(), "need at least one component");
        let n = components[0].len();
        assert!(
            components.iter().all(|b| b.len() == n),
            "all SoA component buffers must have equal length"
        );
        let num_components = components.len();
        let any_shared = components.iter().any(|b| b.is_shared());
        let mut a = Self::from_components(
            name,
            Components {
                layout: Layout::SoA,
                buffers: components,
                num_components,
            },
        );
        if any_shared && sanitizer::active() {
            a.shadow = Some(sanitizer::Shadow::new(&a.name));
        }
        a
    }

    fn from_components<T: Scalar>(name: impl Into<String>, c: Components<T>) -> Self {
        let storage = match T::TYPE {
            ScalarType::F32 => Storage::F32(transmute_components(c)),
            ScalarType::F64 => Storage::F64(transmute_components(c)),
            ScalarType::I32 => Storage::I32(transmute_components(c)),
            ScalarType::I64 => Storage::I64(transmute_components(c)),
            ScalarType::U8 => Storage::U8(transmute_components(c)),
        };
        DataArray {
            name: name.into(),
            storage,
            shadow: None,
            space: MemorySpace::Host,
        }
    }

    /// Array name (field name, e.g. `"data"`, `"velocity"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sanitizer's shadow ledger, when one is attached (zero-copy
    /// arrays created under an active sanitizer context).
    pub fn shadow(&self) -> Option<&Arc<sanitizer::Shadow>> {
        self.shadow.as_ref()
    }

    /// The memory space this array's buffers live in.
    pub fn space(&self) -> MemorySpace {
        self.space
    }

    /// Builder-style placement override (constructors default to
    /// [`MemorySpace::Host`]). Placing a freshly built array is free —
    /// no bytes existed elsewhere — so this records no transfer; use
    /// [`DataArray::move_to`] to relocate existing data.
    pub fn with_space(mut self, space: MemorySpace) -> Self {
        self.space = space;
        self
    }

    /// Payload bytes this array holds (elements only, no metadata) —
    /// what a cross-space transfer of it costs on the wire.
    pub fn payload_bytes(&self) -> usize {
        self.num_tuples() * self.num_components() * self.scalar_type().size_of()
    }

    /// Legacy-accessor space check: the untyped accessors (`get`,
    /// `set`) still hand out data — simulated devices are host RAM —
    /// but an access from the wrong
    /// execution space is a missing transfer on a real machine, so it
    /// is reported to the sanitizer as a `wrong-space-access` finding.
    fn check_exec_space(&self) {
        let exec = space::current_space();
        if !self.space.accessible_from(exec) {
            sanitizer::report_wrong_space(&self.name, &self.space.label(), &exec.label());
        }
    }

    /// Move this array's bytes to `space`: an explicit, tracked
    /// transfer. Returns the payload bytes that crossed the
    /// interconnect (0 when already resident). The storage itself is
    /// untouched (simulated devices share the host's RAM); what moves
    /// is the placement the space checks enforce.
    pub fn move_to(&mut self, space: MemorySpace) -> usize {
        if self.space == space {
            return 0;
        }
        let bytes = self.payload_bytes();
        if let Some(shadow) = &self.shadow {
            shadow.on_read();
        }
        self.space = space;
        bytes
    }

    /// Snapshot this array into `space`: a deep, type- and
    /// layout-preserving copy placed in `space`, with every buffer
    /// `Shared` so re-cloning the snapshot (double-buffered payloads,
    /// worker fan-out) costs a reference count. The transfer is a read
    /// on the shadow: program order puts the device copy before any
    /// later host write, so the two cannot race.
    pub fn snapshot_in(&self, space: MemorySpace) -> DataArray {
        let storage = match &self.storage {
            Storage::F32(c) => Storage::F32(c.snapshot()),
            Storage::F64(c) => Storage::F64(c.snapshot()),
            Storage::I32(c) => Storage::I32(c.snapshot()),
            Storage::I64(c) => Storage::I64(c.snapshot()),
            Storage::U8(c) => Storage::U8(c.snapshot()),
        };
        if let Some(shadow) = &self.shadow {
            shadow.on_read();
        }
        DataArray {
            name: self.name.clone(),
            storage,
            shadow: self.shadow.clone(),
            space,
        }
    }

    /// The array's one buffer, for code executing in `exec`: the space,
    /// type and layout checks (and the shadow read) shared by
    /// [`DataArray::as_slice_in`] and [`DataArray::share_in`].
    fn single_buffer_in<T: Scalar>(&self, exec: MemorySpace) -> Result<&Buffer<T>, AccessError> {
        if !self.space.accessible_from(exec) {
            return Err(AccessError::WrongSpace {
                array: self.name.clone(),
                have: self.space,
                want: exec,
            });
        }
        let c = self
            .components_ref::<T>()
            .ok_or_else(|| AccessError::TypeMismatch {
                array: self.name.clone(),
                want: std::any::type_name::<T>(),
            })?;
        if c.buffers.len() != 1 {
            return Err(AccessError::LayoutUnsupported {
                array: self.name.clone(),
                detail: "multi-buffer SoA storage has no single contiguous slice; \
                         use component_slice_in per component"
                    .to_string(),
            });
        }
        if let Some(shadow) = &self.shadow {
            shadow.on_read();
        }
        Ok(&c.buffers[0])
    }

    /// Space-checked typed view of a single-buffer array, for code
    /// executing in `exec` (normally [`space::current_space`]).
    /// Wrong-space access is an [`AccessError::WrongSpace`], not a
    /// silent copy.
    pub fn as_slice_in<T: Scalar>(&self, exec: MemorySpace) -> Result<&[T], AccessError> {
        self.single_buffer_in(exec).map(Buffer::as_slice)
    }

    /// Space-checked shareable handle on a single-buffer array's
    /// storage: a reference-count bump when the buffer is already
    /// `Shared` (a producer's zero-copy field), one exact-size copy
    /// when the array owns it. Holding the handle keeps a producer that
    /// advances through `Arc::make_mut` copying instead of writing in
    /// place, so a consumer drops it inside its publish window.
    pub fn share_in<T: Scalar>(&self, exec: MemorySpace) -> Result<Arc<Vec<T>>, AccessError> {
        Ok(match self.single_buffer_in(exec)? {
            Buffer::Shared(a) => Arc::clone(a),
            Buffer::Owned(v) => Arc::new(v.clone()),
        })
    }

    /// Space-checked typed view of one component buffer, for code
    /// executing in `exec`.
    pub fn component_slice_in<T: Scalar>(
        &self,
        comp: usize,
        exec: MemorySpace,
    ) -> Result<&[T], AccessError> {
        if !self.space.accessible_from(exec) {
            return Err(AccessError::WrongSpace {
                array: self.name.clone(),
                have: self.space,
                want: exec,
            });
        }
        let c = self
            .components_ref::<T>()
            .ok_or_else(|| AccessError::TypeMismatch {
                array: self.name.clone(),
                want: std::any::type_name::<T>(),
            })?;
        if let Some(shadow) = &self.shadow {
            shadow.on_read();
        }
        c.contiguous(comp)
            .ok_or_else(|| AccessError::LayoutUnsupported {
                array: self.name.clone(),
                detail: format!(
                    "component {comp} of a {}-component AoS array has no contiguous slice",
                    c.num_components
                ),
            })
    }

    /// Space-checked read of one whole component as `f64`, for code
    /// executing in `exec` — the one way consumers read a field. The
    /// result borrows the array's own buffer when the component already
    /// is one contiguous `f64` buffer (single-component AoS, or an SoA
    /// component) and is a widened temporary otherwise, so simulation
    /// data is read in place and everything else is converted once.
    pub fn values_in(&self, comp: usize, exec: MemorySpace) -> Result<Cow<'_, [f64]>, AccessError> {
        if !self.space.accessible_from(exec) {
            return Err(AccessError::WrongSpace {
                array: self.name.clone(),
                have: self.space,
                want: exec,
            });
        }
        if let Some(shadow) = &self.shadow {
            shadow.on_read();
        }
        if let Storage::F64(c) = &self.storage {
            if let Some(slice) = c.contiguous(comp) {
                return Ok(Cow::Borrowed(slice));
            }
        }
        Ok((0..self.num_tuples())
            .map(|t| dispatch!(&self.storage, c => c.get(t, comp).to_f64()))
            .collect())
    }

    /// The runtime scalar type.
    pub fn scalar_type(&self) -> ScalarType {
        match &self.storage {
            Storage::F32(_) => ScalarType::F32,
            Storage::F64(_) => ScalarType::F64,
            Storage::I32(_) => ScalarType::I32,
            Storage::I64(_) => ScalarType::I64,
            Storage::U8(_) => ScalarType::U8,
        }
    }

    /// Memory layout.
    pub fn layout(&self) -> Layout {
        dispatch!(&self.storage, c => c.layout)
    }

    /// Number of components per tuple (1 = scalar field, 3 = vector…).
    pub fn num_components(&self) -> usize {
        dispatch!(&self.storage, c => c.num_components)
    }

    /// Number of tuples (points or cells).
    pub fn num_tuples(&self) -> usize {
        dispatch!(&self.storage, c => c.num_tuples())
    }

    /// True if any backing buffer is a zero-copy view.
    pub fn is_zero_copy(&self) -> bool {
        dispatch!(&self.storage, c => c.buffers.iter().any(|b| b.is_shared()))
    }

    /// Generic element access, widened to `f64`. Space-checked: an
    /// access from an execution space the array is not resident in is
    /// reported to the sanitizer (see [`DataArray::as_slice_in`] for
    /// the typed-error surface).
    pub fn get(&self, tuple: usize, comp: usize) -> f64 {
        self.check_exec_space();
        dispatch!(&self.storage, c => c.get(tuple, comp).to_f64())
    }

    /// Generic element store, narrowed from `f64` (copy-on-write for
    /// shared buffers).
    pub fn set(&mut self, tuple: usize, comp: usize, v: f64) {
        self.check_exec_space();
        if let Some(shadow) = &self.shadow {
            // Tuple-level write event: checks open publish windows and
            // the ghost rule before the store lands.
            shadow.on_write_tuple(tuple);
        }
        match &mut self.storage {
            Storage::F32(c) => c.set(tuple, comp, v as f32),
            Storage::F64(c) => c.set(tuple, comp, v),
            Storage::I32(c) => c.set(tuple, comp, v as i32),
            Storage::I64(c) => c.set(tuple, comp, v as i64),
            Storage::U8(c) => c.set(tuple, comp, v as u8),
        }
    }

    fn components_ref<T: Scalar>(&self) -> Option<&Components<T>> {
        // Safety-free downcast via the type tag.
        macro_rules! try_cast {
            ($variant:ident, $ty:ty) => {
                if let Storage::$variant(c) = &self.storage {
                    if T::TYPE == <$ty as Scalar>::TYPE {
                        let ptr = c as *const Components<$ty> as *const Components<T>;
                        // SAFETY: the `ScalarType` tags match, and tags
                        // are in bijection with concrete element types,
                        // so `T` and `$ty` are the same type and the
                        // two `Components<_>` layouts are identical.
                        return Some(unsafe { &*ptr });
                    }
                }
            };
        }
        try_cast!(F32, f32);
        try_cast!(F64, f64);
        try_cast!(I32, i32);
        try_cast!(I64, i64);
        try_cast!(U8, u8);
        None
    }

    /// `(min, max)` of one component, ignoring NaNs. `None` when empty.
    pub fn range(&self, comp: usize) -> Option<(f64, f64)> {
        let n = self.num_tuples();
        if n == 0 {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for t in 0..n {
            let v = self.get(t, comp);
            if v.is_nan() {
                continue;
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if lo > hi {
            None
        } else {
            Some((lo, hi))
        }
    }
}

/// Reinterpret `Components<T>` as `Components<U>` when `T == U` (checked
/// by the caller via the `ScalarType` tag). Avoids `unsafe` leaking into
/// every constructor.
fn transmute_components<T: Scalar, U: Scalar>(c: Components<T>) -> Components<U> {
    assert_eq!(T::TYPE, U::TYPE);
    // SAFETY: the tag equality just asserted means `T` and `U` are the
    // same concrete type (tags are in bijection with element types),
    // so source and target are the *same* monomorphized layout.
    unsafe { std::mem::transmute::<Components<T>, Components<U>>(c) }
}

impl MemoryFootprint for DataArray {
    fn heap_bytes(&self, count_shared: bool) -> usize {
        let buf_bytes = dispatch!(&self.storage, c => c
            .buffers
            .iter()
            .map(|b| b.heap_bytes(count_shared))
            .sum::<usize>());
        buf_bytes + self.name.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_aos_roundtrip() {
        let a = DataArray::owned("v", 3, vec![1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.num_tuples(), 2);
        assert_eq!(a.num_components(), 3);
        assert_eq!(a.get(1, 2), 6.0);
        assert_eq!(a.layout(), Layout::AoS);
        assert!(!a.is_zero_copy());
    }

    #[test]
    fn shared_is_zero_copy_and_cheap() {
        let sim_field = Arc::new(vec![0.5f64; 1024]);
        let a = DataArray::shared("data", 1, Arc::clone(&sim_field));
        assert!(a.is_zero_copy());
        // No second allocation of the payload: strong count is 2.
        assert_eq!(Arc::strong_count(&sim_field), 2);
        assert_eq!(a.get(1023, 0), 0.5);
        // Own footprint excludes shared bytes; total includes them.
        assert_eq!(a.heap_bytes(false), a.name().len());
        assert!(a.heap_bytes(true) >= 1024 * 8);
    }

    #[test]
    fn soa_component_access() {
        let x = Buffer::Owned(vec![1.0f32, 2.0]);
        let y = Buffer::Owned(vec![10.0f32, 20.0]);
        let a = DataArray::soa("xy", vec![x, y]);
        assert_eq!(a.layout(), Layout::SoA);
        assert_eq!(a.num_components(), 2);
        assert_eq!(a.get(1, 0), 2.0);
        assert_eq!(a.get(0, 1), 10.0);
        assert_eq!(
            a.component_slice_in::<f32>(1, MemorySpace::Host),
            Ok(&[10.0f32, 20.0][..])
        );
    }

    #[test]
    fn soa_can_mix_shared_and_owned() {
        let sim = Arc::new(vec![7.0f64; 4]);
        let a = DataArray::soa(
            "mix",
            vec![
                Buffer::Shared(Arc::clone(&sim)),
                Buffer::Owned(vec![0.0; 4]),
            ],
        );
        assert!(a.is_zero_copy());
        assert_eq!(a.get(3, 0), 7.0);
        assert_eq!(a.get(3, 1), 0.0);
    }

    #[test]
    fn copy_on_write_preserves_simulation_data() {
        let sim = Arc::new(vec![1.0f64, 2.0]);
        let mut a = DataArray::shared("d", 1, Arc::clone(&sim));
        a.set(0, 0, 99.0);
        assert_eq!(a.get(0, 0), 99.0);
        // Simulation's buffer untouched.
        assert_eq!(sim[0], 1.0);
        assert!(!a.is_zero_copy());
    }

    #[test]
    fn range_ignores_nan() {
        let a = DataArray::owned("r", 1, vec![3.0f64, f64::NAN, -1.0, 2.0]);
        assert_eq!(a.range(0), Some((-1.0, 3.0)));
    }

    #[test]
    fn range_of_empty_is_none() {
        let a = DataArray::owned("e", 1, Vec::<f64>::new());
        assert_eq!(a.range(0), None);
        assert_eq!(a.num_tuples(), 0);
    }

    #[test]
    fn u8_ghost_style_array() {
        let a = DataArray::owned("vtkGhostType", 1, vec![0u8, 1, 0]);
        assert_eq!(a.scalar_type(), ScalarType::U8);
        assert_eq!(a.get(1, 0), 1.0);
    }

    #[test]
    fn arrays_default_to_host_space() {
        let a = DataArray::owned("u", 1, vec![1.0f64, 2.0]);
        assert_eq!(a.space(), MemorySpace::Host);
        assert_eq!(a.as_slice_in::<f64>(MemorySpace::Host), Ok(&[1.0, 2.0][..]));
    }

    #[test]
    fn wrong_space_access_is_a_typed_error() {
        let a = DataArray::owned("u", 1, vec![1.0f64, 2.0]);
        match a.as_slice_in::<f64>(MemorySpace::DeviceSim(0)) {
            Err(AccessError::WrongSpace { array, have, want }) => {
                assert_eq!(array, "u");
                assert_eq!(have, MemorySpace::Host);
                assert_eq!(want, MemorySpace::DeviceSim(0));
            }
            other => panic!("expected WrongSpace, got {other:?}"),
        }
        assert!(a.values_in(0, MemorySpace::DeviceSim(1)).is_err());
        assert!(a
            .component_slice_in::<f64>(0, MemorySpace::DeviceSim(0))
            .is_err());
    }

    #[test]
    fn shared_space_is_reachable_from_any_exec_space() {
        let a = DataArray::owned("pinned", 1, vec![3.0f64]).with_space(MemorySpace::Shared);
        assert!(a.as_slice_in::<f64>(MemorySpace::Host).is_ok());
        assert!(a.as_slice_in::<f64>(MemorySpace::DeviceSim(7)).is_ok());
    }

    #[test]
    fn as_slice_in_reports_type_and_layout_errors() {
        let a = DataArray::owned("i", 1, vec![1i32, 2]);
        assert!(matches!(
            a.as_slice_in::<f64>(MemorySpace::Host),
            Err(AccessError::TypeMismatch { .. })
        ));
        let s = DataArray::soa(
            "xy",
            vec![Buffer::Owned(vec![1.0f64]), Buffer::Owned(vec![2.0f64])],
        );
        assert!(matches!(
            s.as_slice_in::<f64>(MemorySpace::Host),
            Err(AccessError::LayoutUnsupported { .. })
        ));
        assert_eq!(
            s.component_slice_in::<f64>(1, MemorySpace::Host),
            Ok(&[2.0f64][..])
        );
    }

    #[test]
    fn move_to_is_a_tracked_transfer() {
        let mut a = DataArray::owned("u", 1, vec![0.0f64; 16]);
        assert_eq!(a.move_to(MemorySpace::Host), 0, "already resident");
        let moved = a.move_to(MemorySpace::DeviceSim(0));
        assert_eq!(moved, 16 * 8);
        assert_eq!(a.space(), MemorySpace::DeviceSim(0));
        assert!(a.as_slice_in::<f64>(MemorySpace::Host).is_err());
        assert!(a.as_slice_in::<f64>(MemorySpace::DeviceSim(0)).is_ok());
    }

    #[test]
    fn snapshot_in_preserves_type_and_is_cheap_to_reclone() {
        let a = DataArray::owned("g", 1, vec![0u8, 1, 2]);
        let snap = a.snapshot_in(MemorySpace::DeviceSim(0));
        assert_eq!(snap.scalar_type(), ScalarType::U8);
        assert_eq!(snap.space(), MemorySpace::DeviceSim(0));
        assert!(snap.is_zero_copy(), "snapshot buffers are Shared");
        // Re-cloning shares the snapshot's Arc — no further copy.
        let again = snap.clone();
        assert_eq!(
            again.as_slice_in::<u8>(MemorySpace::DeviceSim(0)),
            Ok(&[0u8, 1, 2][..])
        );
        // The original stays put.
        assert_eq!(a.space(), MemorySpace::Host);
    }

    #[test]
    fn values_in_widens_one_component() {
        let a = DataArray::owned("v", 2, vec![1i64, 10, 2, 20]);
        let widened = a.values_in(1, MemorySpace::Host).unwrap();
        assert!(matches!(widened, Cow::Owned(_)));
        assert_eq!(&widened[..], [10.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn bad_component_count_panics() {
        let _ = DataArray::owned("v", 3, vec![1.0f64; 4]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_soa_panics() {
        let _ = DataArray::soa(
            "bad",
            vec![Buffer::Owned(vec![1.0f64]), Buffer::Owned(vec![1.0, 2.0])],
        );
    }
}

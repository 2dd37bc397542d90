//! Wire sizes: what a payload would put on a wire, stated by its type.

use std::mem::size_of_val;
use std::sync::Arc;

/// A payload that crosses ranks, and the bytes it ships: its own
/// `size_of` plus the heap bytes it carries with it. The send side asks
/// for it ([`Comm::send`](crate::Comm::send), [`Comm::lend`](crate::Comm::lend)
/// and the collectives) and only a probed communicator calls it, so a
/// payload whose type states no size does not compile, and an untraced
/// run sizes nothing. minimpi implements it for the primitives, pairs and
/// triples, arrays, `Vec`, `String`, `Option`, `Result`, `Arc` and
/// `Box`; a type of another crate that crosses ranks implements it
/// beside its definition.
///
/// A shared buffer (`Arc`, `Box`) ships what it points to: the
/// in-process transport moves the pointer, but a wire would carry the
/// contents.
pub trait Wire {
    /// True when the type carries no heap bytes, so that a `Vec` of it
    /// is sized from its length alone, never element by element.
    const PLAIN: bool = false;

    /// The heap bytes this value ships beyond its own `size_of`.
    fn heap_bytes(&self) -> usize;

    /// The bytes this value ships: its `size_of` and its heap bytes.
    fn wire_bytes(&self) -> usize
    where
        Self: Sized,
    {
        size_of_val(self) + self.heap_bytes()
    }
}

/// The heap bytes of the elements of `items`: none, in O(1), when they
/// are plain.
fn deep<T: Wire>(items: &[T]) -> usize {
    if T::PLAIN {
        0
    } else {
        items.iter().map(Wire::heap_bytes).sum()
    }
}

macro_rules! plain {
    ($($t:ty),*) => {
        $(
            impl Wire for $t {
                const PLAIN: bool = true;
                fn heap_bytes(&self) -> usize {
                    0
                }
            }
        )*
    };
}

plain!(u8, u16, u32, u64, u128, usize);
plain!(i8, i16, i32, i64, i128, isize);
plain!(f32, f64, bool, char, ());

macro_rules! tuple {
    ($($name:ident $i:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            const PLAIN: bool = $($name::PLAIN)&&+;
            fn heap_bytes(&self) -> usize {
                0 $(+ self.$i.heap_bytes())+
            }
        }
    };
}

tuple!(A 0, B 1);
tuple!(A 0, B 1, C 2);

impl<T: Wire, const N: usize> Wire for [T; N] {
    const PLAIN: bool = T::PLAIN;
    fn heap_bytes(&self) -> usize {
        deep(self)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn heap_bytes(&self) -> usize {
        size_of_val(self.as_slice()) + deep(self)
    }
}

impl Wire for String {
    fn heap_bytes(&self) -> usize {
        self.len()
    }
}

impl<T: Wire> Wire for Option<T> {
    const PLAIN: bool = T::PLAIN;
    fn heap_bytes(&self) -> usize {
        self.as_ref().map_or(0, Wire::heap_bytes)
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    const PLAIN: bool = T::PLAIN && E::PLAIN;
    fn heap_bytes(&self) -> usize {
        match self {
            Ok(value) => value.heap_bytes(),
            Err(error) => error.heap_bytes(),
        }
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn heap_bytes(&self) -> usize {
        T::wire_bytes(self)
    }
}

impl<T: Wire> Wire for Box<T> {
    fn heap_bytes(&self) -> usize {
        T::wire_bytes(self)
    }
}

// The probe's snapshot is what a run report gathers across ranks. The
// probe crate sits below this one, so its types are sized here.

impl Wire for probe::Snapshot {
    fn heap_bytes(&self) -> usize {
        self.spans.heap_bytes() + self.counters.heap_bytes() + self.gauges.heap_bytes()
    }
}

impl Wire for probe::SpanStat {
    fn heap_bytes(&self) -> usize {
        self.label.heap_bytes()
    }
}

impl Wire for probe::CounterStat {
    fn heap_bytes(&self) -> usize {
        self.name.heap_bytes()
    }
}

impl Wire for probe::GaugeStat {
    fn heap_bytes(&self) -> usize {
        self.name.heap_bytes()
    }
}

impl Wire for probe::FailureEntry {
    fn heap_bytes(&self) -> usize {
        self.kind.heap_bytes() + self.detail.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::Wire;
    use crate::{Verdict, World};

    const VEC: usize = size_of::<Vec<u8>>();

    #[test]
    fn a_vec_of_plain_elements_is_its_header_and_its_elements() {
        assert_eq!(VEC, 24);
        for n in [0, 1, 1000] {
            assert_eq!(vec![0.5f64; n].wire_bytes(), 24 + 8 * n);
        }
        assert_eq!(Vec::<[f32; 3]>::with_capacity(9).wire_bytes(), 24);
        // Plain elements are sized from the length: no walk.
        const { assert!(f64::PLAIN && <(u8, [f32; 3])>::PLAIN && Option::<u64>::PLAIN) };
        const { assert!(!String::PLAIN && !Vec::<u8>::PLAIN && !<(u8, String)>::PLAIN) };
    }

    #[test]
    fn a_string_is_its_header_and_its_bytes() {
        assert_eq!(String::from("minimpi").wire_bytes(), 24 + 7);
        assert_eq!(String::new().wire_bytes(), 24);
    }

    #[test]
    fn a_tuple_is_its_size_and_the_heap_of_each_field() {
        // A band of bits, its bit length and its checksum.
        let band = (vec![7u8; 300], 2_400u64, 9u32);
        assert_eq!(size_of::<(Vec<u8>, u64, u32)>(), 40);
        assert_eq!(band.wire_bytes(), 40 + 300);
    }

    #[test]
    fn a_vec_of_vecs_is_sized_element_by_element() {
        let rows = vec![vec![1u64; 3], Vec::new(), vec![2u64; 5]];
        assert_eq!(rows.wire_bytes(), VEC + 3 * VEC + 8 * (3 + 5));
        assert_eq!(rows.wire_bytes(), 24 + 72 + 64);
    }

    #[test]
    fn a_shared_buffer_ships_what_it_points_to() {
        let deck = std::sync::Arc::new(vec![1.0f64; 4]);
        assert_eq!(deck.wire_bytes(), 8 + 24 + 32);
        assert_eq!(Some(Box::new(3u32)).wire_bytes(), 8 + 4);
        assert_eq!(None::<Box<u32>>.wire_bytes(), 8);
    }

    /// `(messages, bytes)` of the counter `name` on `comm`'s probe.
    fn sent(comm: &crate::Comm, name: &str) -> (u64, u64) {
        let snap = comm.probe().snapshot();
        let c = snap.counters.iter().find(|c| c.name == name);
        c.map_or((0, 0), |c| (c.messages, c.bytes))
    }

    #[test]
    fn a_loan_ships_its_contents_and_its_return_only_its_size() {
        World::run(2, |comm| {
            comm.attach_probe(probe::enabled());
            if comm.rank() == 0 {
                comm.lend(1, 5, 1, |v: &mut Vec<u64>| v.extend([1, 2, 3]));
                comm.reclaim::<Vec<u64>>(1, 5);
                assert_eq!(sent(comm, "minimpi/p2p"), (1, 24 + 3 * 8));
            } else {
                let v: Vec<u64> = comm.recv(0, 5);
                comm.give_back(0, 5, v, Verdict::Taken);
                let back = size_of::<(Vec<u64>, Verdict)>() as u64;
                assert_eq!(back, 32);
                assert_eq!(sent(comm, "minimpi/p2p"), (1, back));
            }
        });
    }

    #[test]
    fn a_collective_of_a_tuple_counts_each_message_at_its_wire_bytes() {
        World::run(2, |comm| {
            comm.attach_probe(probe::enabled());
            let name = format!("rank {}", comm.rank());
            let got = comm.gather(0, (name, comm.rank() as u64));
            let bytes = (size_of::<(String, u64)>() + "rank 1".len()) as u64;
            let want = if comm.rank() == 0 { (0, 0) } else { (1, bytes) };
            assert_eq!(sent(comm, "minimpi/gather"), want);
            assert_eq!(bytes, 32 + 6);
            if let Some(got) = got {
                assert_eq!(got[1], ("rank 1".to_string(), 1));
            }
        });
    }
}

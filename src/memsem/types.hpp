// rc11lib/memsem/types.hpp
//
// Fundamental identifier and enumeration types for the RC11 RAR memory
// semantics (paper Section 3.3).

#pragma once

#include <cstdint>
#include <limits>

namespace rc11::memsem {

/// Values stored in global variables and registers.
using Value = std::int64_t;

/// Thread identifier (dense, 0-based).
using ThreadId = std::uint32_t;

/// Location identifier: a global variable *or* an abstract object.  The
/// paper's views (tview, mview) are functions from global variables to
/// operations, extended in Section 4 so that abstract objects are also view
/// domain elements (tview_t(l) for a lock l).  We therefore unify both under
/// one dense id space per System.
using LocId = std::uint32_t;

/// Operation identifier: index into the MemState operation arena.  The
/// paper's (action, timestamp) pairs are realised as Op records; OpIds are
/// allocation-ordered, while modification order is kept per location.
using OpId = std::uint32_t;

inline constexpr OpId kNoOp = std::numeric_limits<OpId>::max();

/// Which component of the combined client-library state a location belongs
/// to (GVar_C vs GVar_L in the paper).
enum class Component : std::uint8_t { Client = 0, Library = 1 };

/// What a location is.
enum class LocKind : std::uint8_t {
  Var,    ///< plain C11 global variable (read/write/update)
  Lock,   ///< abstract lock object (Fig. 6)
  Stack,  ///< abstract synchronising stack object (Figs. 1-3; our semantics)
  Queue,  ///< abstract synchronising FIFO queue (extension; same discipline)
};

/// Kind of a modifying operation in the ops set.
enum class OpKind : std::uint8_t {
  Init,         ///< initialising write (timestamp 0) — also object init
  Write,        ///< relaxed write wr(x, n)
  WriteRel,     ///< releasing write wr^R(x, n)
  WriteNa,      ///< non-atomic write wr^NA(x, n) — never releases
  Update,       ///< update upd^RA(x, m, n): atomic read-modify-write
  LockAcquire,  ///< abstract lock acquire_n (Fig. 6)
  LockRelease,  ///< abstract lock release_n (Fig. 6)
  StackPush,    ///< abstract stack push (releasing)
  QueueEnqueue, ///< abstract queue enqueue (releasing)
};

/// Memory-order annotation on program accesses ([A] / [R] / none in the
/// grammar of Section 3.1; CAS and FAI are always RA).  `NonAtomic` extends
/// the grammar with plain C11 non-atomic accesses: operationally they behave
/// like relaxed accesses (same observability, no synchronisation), but they
/// additionally participate in data races — two hb-unordered same-location
/// accesses of which at least one writes and at least one is non-atomic are
/// a race (C11 §5.1.2.4; the rc11-race checker reports them).
enum class MemOrder : std::uint8_t { Relaxed, Acquire, Release, AcqRel, NonAtomic };

/// True iff an access with this order can take part in synchronisation (an
/// acquiring read of a releasing write).  Relaxed and non-atomic accesses
/// never synchronise.
[[nodiscard]] constexpr bool synchronises(MemOrder o) noexcept {
  return o == MemOrder::Acquire || o == MemOrder::Release ||
         o == MemOrder::AcqRel;
}

/// Access footprint of one program step, for the engine's independence
/// relation (engine/transition_system.hpp).  Classifies what the step does
/// to the shared state: nothing (Local), a plain read, a plain write, an
/// atomic read-modify-write, or an abstract object method call (which reads
/// *and* writes the object's history and always synchronises).
enum class AccessKind : std::uint8_t {
  Local,   ///< register/control only — touches no location
  Read,    ///< plain load
  Write,   ///< plain store
  Update,  ///< CAS / FAI — reads and writes the location
  Object,  ///< lock/stack/queue method call on an abstract object
};

/// True iff a step with this footprint can modify the accessed location's
/// history (the "at least one write" side of the dependence relation).
[[nodiscard]] constexpr bool writes_location(AccessKind k) noexcept {
  return k == AccessKind::Write || k == AccessKind::Update ||
         k == AccessKind::Object;
}

/// The distinguished value returned by a take on an empty container — a pop
/// on an empty stack or a dequeue on an empty queue (Empty in the paper's
/// [s.pop_emp] assertions).
inline constexpr Value kStackEmpty = -1;

}  // namespace rc11::memsem

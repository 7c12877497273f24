// rc11lib/objects/container.hpp
//
// The abstract synchronising containers: the stack used by the paper's
// motivating examples (Figures 1-3) and a FIFO queue.  push^R / enq^R
// publishes, pop^A / deq^A synchronises with the matched put.
//
// The paper motivates these objects but formalises only the lock, so the
// ordering semantics here is our design (documented in DESIGN.md), chosen to
// mirror Fig. 6's discipline:
//
//   * Every put takes a maximal timestamp on the container's location, so
//     the put history is totally ordered (like the lock history).
//   * A take consumes (covers) one uncovered put: the *latest* for a stack
//     (LIFO over the total order), the *oldest* for a queue (FIFO).  That
//     choice, read from the location's LocKind, is the only difference
//     between the two.  If the take is acquiring and the matched put
//     releasing, the taking thread synchronises with the put's modification
//     view: this is exactly what makes Fig. 2/3's message passing work and
//     what is missing in Fig. 1 (relaxed operations).
//   * A take on an empty container (all puts covered or none exist) returns
//     kStackEmpty and does not change the state, so retry loops do not grow
//     the operation history.
//
// Unlike the lock, a take does not append an operation of its own: the
// observability assertions of Section 5.1 (⟨s.pop_v⟩, [s.pop_emp]) are about
// which values *can be taken*, which this representation answers directly
// from the set of uncovered puts.

#pragma once

#include <optional>

#include "memsem/state.hpp"

namespace rc11::objects {

using memsem::LocId;
using memsem::MemState;
using memsem::OpId;
using memsem::ThreadId;
using memsem::Value;

/// The uncovered put a take on `container` would return, if any: the latest
/// on a Stack location, the oldest on a Queue location.
[[nodiscard]] std::optional<OpId> container_next(const MemState& mem,
                                                 LocId container);

/// True iff a take would return kStackEmpty.
[[nodiscard]] bool container_empty(const MemState& mem, LocId container);

/// Puts `v` (releasing when `releasing` — the paper's push^R, or enq^R).
OpId container_put(MemState& mem, ThreadId t, LocId container, Value v,
                   bool releasing);

/// Takes: consumes the put `next` — container_next() of this state, found
/// by the caller — and returns its value, synchronising when the take
/// acquires and the put releases; returns kStackEmpty when `next` is empty
/// (state unchanged).
Value container_take(MemState& mem, ThreadId t, LocId container,
                     std::optional<OpId> next, bool acquiring);

/// container_take of container_next().
Value container_take(MemState& mem, ThreadId t, LocId container,
                     bool acquiring);

/// Number of uncovered puts.
[[nodiscard]] std::size_t container_size(const MemState& mem, LocId container);

}  // namespace rc11::objects

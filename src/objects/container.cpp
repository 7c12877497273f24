#include "objects/container.hpp"

#include "support/diagnostics.hpp"

namespace rc11::objects {

using memsem::kStackEmpty;
using memsem::LocKind;
using memsem::OpKind;

namespace {

/// The kind of operation a put on `container` records, and so the entries a
/// take scans for: StackPush on a stack, QueueEnqueue on a queue.  Keeping
/// the two kinds apart keeps the state encoding of each container as it is.
OpKind put_kind(const MemState& mem, LocId container) {
  const LocKind kind = mem.locations().kind(container);
  RC11_REQUIRE(kind == LocKind::Stack || kind == LocKind::Queue,
               "container operation on a non-container location");
  return kind == LocKind::Stack ? OpKind::StackPush : OpKind::QueueEnqueue;
}

}  // namespace

std::optional<OpId> container_next(const MemState& mem, LocId container) {
  const OpKind put = put_kind(mem, container);
  const bool newest_first = put == OpKind::StackPush;
  const auto order = mem.mo(container);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const OpId id = order[newest_first ? order.size() - 1 - i : i];
    const auto& op = mem.op(id);
    if (op.kind == put && !op.covered) return id;
  }
  return std::nullopt;
}

bool container_empty(const MemState& mem, LocId container) {
  return !container_next(mem, container).has_value();
}

OpId container_put(MemState& mem, ThreadId t, LocId container, Value v,
                   bool releasing) {
  return mem.object_op(t, container, put_kind(mem, container), v, releasing,
                       /*sync_with=*/std::nullopt, /*cover=*/false);
}

Value container_take(MemState& mem, ThreadId t, LocId container,
                     std::optional<OpId> next, bool acquiring) {
  if (!next) return kStackEmpty;
  const Value v = mem.op(*next).value;
  const bool sync = acquiring && mem.op(*next).releasing;
  mem.consume(t, container, *next, sync);
  return v;
}

Value container_take(MemState& mem, ThreadId t, LocId container,
                     bool acquiring) {
  return container_take(mem, t, container, container_next(mem, container),
                        acquiring);
}

std::size_t container_size(const MemState& mem, LocId container) {
  const OpKind put = put_kind(mem, container);
  std::size_t n = 0;
  for (const OpId id : mem.mo(container)) {
    const auto& op = mem.op(id);
    if (op.kind == put && !op.covered) ++n;
  }
  return n;
}

}  // namespace rc11::objects

#include "containers/container_objects.hpp"

#include "memsem/types.hpp"
#include "support/diagnostics.hpp"

namespace rc11::containers {

using lang::c;
using memsem::Component;
using memsem::kStackEmpty;

namespace {

/// How each order is spelled in object names, labels and client registers.
struct Spelling {
  const char* object;     ///< "stack" / "queue"
  const char* loc;        ///< the abstract container's location
  const char* put;        ///< put method
  const char* take;       ///< take method
  const char* taken_reg;  ///< producer/consumer register prefix
};

const Spelling& spelling(LocKind kind) {
  static constexpr Spelling kStack{"stack", "s", "push", "pop", "p"};
  static constexpr Spelling kQueue{"queue", "q", "enq", "deq", "d"};
  return kind == LocKind::Stack ? kStack : kQueue;
}

}  // namespace

ContainerObject::ContainerObject(LocKind kind) : kind_(kind) {
  support::require(kind == LocKind::Stack || kind == LocKind::Queue,
                   "a container is a stack or a queue");
}

// --- abstract container ------------------------------------------------------

std::string AbstractContainer::name() const {
  return std::string("abstract-") + spelling(kind()).object;
}

void AbstractContainer::declare(System& sys) {
  const char* loc = spelling(kind()).loc;
  loc_ = kind() == LocKind::Stack ? sys.library_stack(loc)
                                  : sys.library_queue(loc);
}

void AbstractContainer::emit_put(ThreadBuilder& tb, Expr value,
                                 bool releasing) {
  const auto& sp = spelling(kind());
  const std::string label = std::string(sp.loc) + "." + sp.put;
  if (releasing) {
    tb.push_rel(loc_, std::move(value), label + "R");
  } else {
    tb.push(loc_, std::move(value), label);
  }
}

void AbstractContainer::emit_take(ThreadBuilder& tb, Reg dst, bool acquiring) {
  const auto& sp = spelling(kind());
  const std::string label = std::string("r <- ") + sp.loc + "." + sp.take;
  if (acquiring) {
    tb.pop_acq(dst, loc_, label + "A()");
  } else {
    tb.pop(dst, loc_, label + "()");
  }
}

// --- locked containers -------------------------------------------------------

LockedContainer::LockedContainer(LocKind kind, Layout layout,
                                 unsigned capacity, bool releasing_unlock)
    : ContainerObject(kind),
      layout_(std::move(layout)),
      capacity_(capacity),
      releasing_unlock_(releasing_unlock) {}

std::string LockedContainer::name() const {
  return releasing_unlock_ ? layout_.name
                           : layout_.name + "-broken-relaxed-unlock";
}

void LockedContainer::declare(System& sys) {
  support::require(capacity_ >= 1 && capacity_ <= 8, layout_.name,
                   " capacity must be in [1, 8]");
  regs_.reset();
  lk_ = sys.library_var(layout_.lock, 0);
  index_vars_.clear();
  for (const auto& index : layout_.indices) {
    index_vars_.push_back(sys.library_var(index.var, 0));
  }
  slots_.clear();
  for (lang::Value i = 0; i < capacity_; ++i) {
    slots_.push_back(sys.library_var(layout_.slot + std::to_string(i), 0));
  }
}

LockedContainer::ThreadRegs& LockedContainer::regs_for(ThreadBuilder& tb) {
  return regs_.get(tb, [this](ThreadBuilder& b) {
    ThreadRegs r{b.reg(layout_.lock_reg, 0, Component::Library), {}};
    for (const auto& index : layout_.indices) {
      r.index.push_back(b.reg(index.reg, 0, Component::Library));
    }
    return r;
  });
}

void LockedContainer::emit_lock(ThreadBuilder& tb) {
  const Reg flag = regs_for(tb).lock;
  tb.do_until(
      [&] {
        tb.cas(flag, lk_, c(0), c(1), "loc <- CAS(" + layout_.lock + ", 0, 1)");
      },
      Expr{flag});
}

void LockedContainer::emit_unlock(ThreadBuilder& tb) {
  if (releasing_unlock_) {
    tb.store_rel(lk_, c(0), layout_.lock + " :=R 0");
  } else {
    tb.store(lk_, c(0), layout_.lock + " := 0 (BROKEN: relaxed)");
  }
}

void LockedContainer::emit_put(ThreadBuilder& tb, Expr value,
                               bool /*releasing*/) {
  // The implementation synchronises through the lock regardless of the
  // client's annotation: it may synchronise *more* than a relaxed abstract
  // put, which is fine for refinement (concrete observability shrinks).
  const auto& regs = regs_for(tb);
  emit_lock(tb);
  emit_put_body(tb, regs.index, value);
  emit_unlock(tb);
}

void LockedContainer::emit_take(ThreadBuilder& tb, Reg dst,
                                bool /*acquiring*/) {
  const auto& regs = regs_for(tb);
  emit_lock(tb);
  emit_take_body(tb, regs.index, dst);
  emit_unlock(tb);
}

void LockedContainer::emit_slot_chain(
    ThreadBuilder& tb, const Expr& index, lang::Value first,
    const std::function<void(LocId)>& access) const {
  std::function<void(std::size_t)> chain = [&](std::size_t i) {
    if (i + 1 == slots_.size()) {
      access(slots_[i]);
      return;
    }
    tb.if_else(
        index == c(first + static_cast<lang::Value>(i)),
        [&] { access(slots_[i]); }, [&] { chain(i + 1); });
  };
  chain(0);
}

void LockedContainer::emit_store_slot(ThreadBuilder& tb, const Expr& index,
                                      lang::Value first,
                                      const Expr& value) const {
  emit_slot_chain(tb, index, first,
                  [&](LocId slot) { tb.store(slot, value, "slot := v"); });
}

void LockedContainer::emit_take_slot(
    ThreadBuilder& tb, const Expr& empty, const Expr& index, lang::Value first,
    Reg dst, const std::function<void()>& advance) const {
  tb.if_else(
      empty, [&] { tb.assign(dst, c(kStackEmpty), "r := Empty"); },
      [&] {
        emit_slot_chain(tb, index, first,
                        [&](LocId slot) { tb.load(dst, slot, "r <- slot"); });
        advance();
      });
}

// --- the two implementations -------------------------------------------------

LockedVectorStack::LockedVectorStack(unsigned capacity, bool releasing_unlock)
    : LockedContainer(LocKind::Stack,
                      {"locked-vector-stack", "slk", "slot", "svs_loc",
                       {{"scnt", "svs_cnt"}}},
                      capacity, releasing_unlock) {}

void LockedVectorStack::emit_put_body(ThreadBuilder& tb,
                                      const std::vector<Reg>& idx,
                                      const Expr& value) {
  const Reg cnt = idx[0];
  tb.load(cnt, index_var(0), "c <- scnt");
  emit_store_slot(tb, Expr{cnt}, 0, value);
  tb.store(index_var(0), Expr{cnt} + c(1), "scnt := c + 1");
}

void LockedVectorStack::emit_take_body(ThreadBuilder& tb,
                                       const std::vector<Reg>& idx, Reg dst) {
  const Reg cnt = idx[0];
  tb.load(cnt, index_var(0), "c <- scnt");
  emit_take_slot(tb, Expr{cnt} == c(0), Expr{cnt}, 1, dst, [&] {
    tb.store(index_var(0), Expr{cnt} - c(1), "scnt := c - 1");
  });
}

LockedRingQueue::LockedRingQueue(unsigned capacity, bool releasing_unlock)
    : LockedContainer(LocKind::Queue,
                      {"locked-ring-queue", "qlk", "qslot", "lrq_loc",
                       {{"qhd", "lrq_hd"}, {"qtl", "lrq_tl"}}},
                      capacity, releasing_unlock) {}

void LockedRingQueue::emit_put_body(ThreadBuilder& tb,
                                    const std::vector<Reg>& idx,
                                    const Expr& value) {
  const Reg tail = idx[1];
  tb.load(tail, index_var(1), "t <- qtl");
  emit_store_slot(tb, Expr{tail} % c(capacity()), 0, value);
  tb.store(index_var(1), Expr{tail} + c(1), "qtl := t + 1");
}

void LockedRingQueue::emit_take_body(ThreadBuilder& tb,
                                     const std::vector<Reg>& idx, Reg dst) {
  const Reg head = idx[0];
  const Reg tail = idx[1];
  tb.load(head, index_var(0), "h <- qhd");
  tb.load(tail, index_var(1), "t <- qtl");
  emit_take_slot(tb, Expr{head} == Expr{tail}, Expr{head} % c(capacity()), 0,
                 dst, [&] {
                   tb.store(index_var(0), Expr{head} + c(1), "qhd := h + 1");
                 });
}

std::unique_ptr<LockedContainer> locked_container(LocKind kind,
                                                  unsigned capacity,
                                                  bool releasing_unlock) {
  if (kind == LocKind::Queue) {
    return std::make_unique<LockedRingQueue>(capacity, releasing_unlock);
  }
  support::require(kind == LocKind::Stack, "a container is a stack or a queue");
  return std::make_unique<LockedVectorStack>(capacity, releasing_unlock);
}

// --- instantiation / clients -------------------------------------------------

System instantiate(const ClientProgram& client, ContainerObject& object) {
  return og::instantiate_object(client, object);
}

ClientProgram publication_client(ClientArtifacts* artifacts) {
  return [artifacts](System& sys, ContainerObject& container) {
    const auto d = sys.client_var("d", 0);
    auto t0 = sys.thread();
    t0.store(d, c(5), "d := 5");
    container.emit_put(t0, c(1), /*releasing=*/true);

    auto t1 = sys.thread();
    auto r1 = t1.reg("r1");
    auto r2 = t1.reg("r2");
    container.emit_take(t1, r1, /*acquiring=*/true);
    t1.load(r2, d, "r2 <- d");

    if (artifacts != nullptr) {
      artifacts->vars = {d};
      artifacts->regs = {r1, r2};
    }
  };
}

ClientProgram producer_consumer_client(unsigned puts,
                                       ClientArtifacts* artifacts) {
  support::require(puts >= 1 && puts <= 4,
                   "producer_consumer_client supports 1..4 puts");
  return [puts, artifacts](System& sys, ContainerObject& container) {
    auto t0 = sys.thread();
    for (unsigned i = 0; i < puts; ++i) {
      container.emit_put(t0, c(static_cast<lang::Value>(i + 10)),
                         /*releasing=*/true);
    }
    auto t1 = sys.thread();
    if (artifacts != nullptr) artifacts->regs.clear();
    const std::string prefix = spelling(container.kind()).taken_reg;
    for (unsigned i = 0; i < puts; ++i) {
      auto r = t1.reg(prefix + std::to_string(i));
      container.emit_take(t1, r, /*acquiring=*/true);
      if (artifacts != nullptr) artifacts->regs.push_back(r);
    }
  };
}

}  // namespace rc11::containers

// rc11lib/containers/container_objects.hpp
//
// Contextual refinement for the ordered containers: the synchronising stack
// (LIFO) and FIFO queue.  The paper works out its refinement theory on the
// lock and notes that "the theory itself is generic and can be applied to
// concurrent objects in general" and that investigating "implementations of
// other concurrent data types ... within this operational framework" is
// future work; this module is that exercise, for both orders at once.
//
// A ContainerObject fills a client's put/take holes (push/pop on a stack,
// enq/deq on a queue) with either the abstract container
// (objects/container.hpp), whose order is its location kind, or a concrete
// implementation.  The two implementations are bounded and protected by one
// spinlock; they differ only in how they index their slots:
//
//   LockedVectorStack:
//     Put(v):  lock(); c <- scnt; slot_c := v; scnt := c + 1; unlock()
//     Take():  lock(); c <- scnt;
//              if c = 0 { return Empty }
//              else     { r <- slot_{c-1}; scnt := c - 1; return r }
//              unlock()
//   LockedRingQueue:
//     Put(v):  lock(); t <- qtl; qslot_{t mod K} := v; qtl := t + 1; unlock()
//     Take():  lock(); h <- qhd; t <- qtl;
//              if h = t { return Empty }
//              else     { r <- qslot_{h mod K}; qhd := h + 1; return r }
//              unlock()
//
// where lock()/unlock() is a CAS spinlock whose releasing unlock is the
// source of the publication guarantee: an acquiring take of a releasing put
// must transfer the putter's client views, and here it does because the
// taker's lock-acquire CAS synchronises with the putter's lock release,
// whose modification view is at least as recent as the put's.  The broken
// variants unlock with a relaxed write and must fail refinement.
//
// Capacity is a compile-time bound (slots are scalar library variables; the
// language deliberately has no arrays).  There is no overflow handling: a
// put beyond the capacity overwrites a slot (the stack's top slot, the
// ring's oldest), which refinement checking reports as a divergence from
// the abstract container.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lang/system.hpp"
#include "og/catalog.hpp"

namespace rc11::containers {

using lang::Expr;
using lang::LocId;
using lang::Reg;
using lang::System;
using lang::ThreadBuilder;
using memsem::LocKind;

/// Interface for anything that can fill a client's container holes.
class ContainerObject {
 public:
  /// `kind` is LocKind::Stack (LIFO) or LocKind::Queue (FIFO).
  explicit ContainerObject(LocKind kind);
  virtual ~ContainerObject() = default;

  [[nodiscard]] LocKind kind() const { return kind_; }
  [[nodiscard]] virtual std::string name() const = 0;
  virtual void declare(System& sys) = 0;
  /// Emits put(value); releasing selects push^R / enq^R.
  virtual void emit_put(ThreadBuilder& tb, Expr value, bool releasing) = 0;
  /// Emits dst <- take(); acquiring selects pop^A / deq^A.  dst receives the
  /// taken value or memsem::kStackEmpty.
  virtual void emit_take(ThreadBuilder& tb, Reg dst, bool acquiring) = 0;

 private:
  LocKind kind_;
};

/// The abstract synchronising container: the stack of Figures 1-3 (library
/// location `s`) or the FIFO queue (library location `q`).
class AbstractContainer final : public ContainerObject {
 public:
  explicit AbstractContainer(LocKind kind) : ContainerObject(kind) {}

  [[nodiscard]] std::string name() const override;
  void declare(System& sys) override;
  void emit_put(ThreadBuilder& tb, Expr value, bool releasing) override;
  void emit_take(ThreadBuilder& tb, Reg dst, bool acquiring) override;

  [[nodiscard]] LocId loc() const { return loc_; }

 private:
  LocId loc_ = 0;
};

/// The spinlock-protected bounded container both implementations share (see
/// file comment).  It owns the capacity check, the per-thread registers, the
/// lock and unlock, and the slot if-chain; a subclass supplies the index
/// arithmetic between lock and unlock.
class LockedContainer : public ContainerObject {
 public:
  [[nodiscard]] std::string name() const override;
  void declare(System& sys) override;
  void emit_put(ThreadBuilder& tb, Expr value, bool releasing) override;
  void emit_take(ThreadBuilder& tb, Reg dst, bool acquiring) override;

 protected:
  /// An index variable and the register that holds a thread's copy of it.
  struct Index {
    std::string var;
    std::string reg;
  };
  /// The library names of one implementation.
  struct Layout {
    std::string name;      ///< name() of the releasing variant
    std::string lock;      ///< the spinlock flag variable
    std::string slot;      ///< slot variable prefix
    std::string lock_reg;  ///< the CAS flag register
    /// Declared after the lock and before the slots, in this order.
    std::vector<Index> indices;
  };
  LockedContainer(LocKind kind, Layout layout, unsigned capacity,
                  bool releasing_unlock);

  /// The put and take bodies, emitted with the lock held.  `idx` holds the
  /// thread's registers for the index variables, in Layout order.
  virtual void emit_put_body(ThreadBuilder& tb, const std::vector<Reg>& idx,
                             const Expr& value) = 0;
  virtual void emit_take_body(ThreadBuilder& tb, const std::vector<Reg>& idx,
                              Reg dst) = 0;

  [[nodiscard]] LocId index_var(std::size_t i) const { return index_vars_[i]; }
  [[nodiscard]] lang::Value capacity() const { return capacity_; }

  /// `slot := value` into the slot `index` selects: an if-chain testing
  /// `index == first`, `index == first + 1`, … slot by slot, whose last
  /// slot takes every remaining index (so overflow overwrites it).
  void emit_store_slot(ThreadBuilder& tb, const Expr& index, lang::Value first,
                       const Expr& value) const;
  /// `dst := Empty` when `empty` holds; otherwise `dst <- slot` from the
  /// slot `index` selects (as in emit_store_slot), then `advance()`.
  void emit_take_slot(ThreadBuilder& tb, const Expr& empty, const Expr& index,
                      lang::Value first, Reg dst,
                      const std::function<void()>& advance) const;

 private:
  struct ThreadRegs {
    Reg lock;                ///< spinlock CAS flag
    std::vector<Reg> index;  ///< local copies of the index variables
  };
  ThreadRegs& regs_for(ThreadBuilder& tb);
  void emit_lock(ThreadBuilder& tb);
  void emit_unlock(ThreadBuilder& tb);
  void emit_slot_chain(ThreadBuilder& tb, const Expr& index, lang::Value first,
                       const std::function<void(LocId)>& access) const;

  Layout layout_;
  lang::Value capacity_;
  bool releasing_unlock_;
  LocId lk_ = 0;
  std::vector<LocId> index_vars_;
  std::vector<LocId> slots_;
  og::PerThreadRegs<ThreadRegs> regs_;
};

/// Bounded spinlock-protected vector stack (see file comment).
class LockedVectorStack final : public LockedContainer {
 public:
  explicit LockedVectorStack(unsigned capacity = 2,
                             bool releasing_unlock = true);

 private:
  void emit_put_body(ThreadBuilder& tb, const std::vector<Reg>& idx,
                     const Expr& value) override;
  void emit_take_body(ThreadBuilder& tb, const std::vector<Reg>& idx,
                      Reg dst) override;
};

/// Bounded spinlock-protected ring buffer (see file comment).
class LockedRingQueue final : public LockedContainer {
 public:
  explicit LockedRingQueue(unsigned capacity = 2, bool releasing_unlock = true);

 private:
  void emit_put_body(ThreadBuilder& tb, const std::vector<Reg>& idx,
                     const Expr& value) override;
  void emit_take_body(ThreadBuilder& tb, const std::vector<Reg>& idx,
                      Reg dst) override;
};

/// The locked implementation of a `kind` container: LockedVectorStack for a
/// Stack, LockedRingQueue for a Queue.
[[nodiscard]] std::unique_ptr<LockedContainer> locked_container(
    LocKind kind, unsigned capacity = 2, bool releasing_unlock = true);

/// A client program over container holes (the analogue of
/// locks::ClientProgram).
using ClientProgram = std::function<void(System&, ContainerObject&)>;

/// Builds C[O] for a container object.
[[nodiscard]] System instantiate(const ClientProgram& client,
                                 ContainerObject& object);

/// Handles to a client's observable artifacts.
struct ClientArtifacts {
  std::vector<LocId> vars;
  std::vector<Reg> regs;
};

/// The Fig. 2-shaped publication client: t0 writes d := 5 then puts the
/// message (releasing); t1 takes (acquiring, once — it may see Empty) and
/// then reads d.
ClientProgram publication_client(ClientArtifacts* artifacts = nullptr);

/// A two-thread producer/consumer: t0 puts `puts` distinct values 10, 11, …;
/// t1 takes the same number of times (each take may return Empty).
ClientProgram producer_consumer_client(unsigned puts,
                                       ClientArtifacts* artifacts = nullptr);

}  // namespace rc11::containers

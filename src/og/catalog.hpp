// rc11lib/og/catalog.hpp
//
// The paper's two worked verification examples, packaged as reusable
// artifacts: the program, the registers/locations involved, and the proof
// outline whose validity the paper establishes deductively (Lemma 4) and
// which this library checks over the reachable state space.
//
//   * Figure 3: message passing through the synchronising stack —
//     conditional-observation assertions carry the library synchronisation
//     guarantee into the client.
//
//   * Figure 7: two threads exchanging data under the abstract lock —
//     mutual exclusion plus write visibility, with the rl register recording
//     the version of thread 2's acquire (rl ∈ {1, 3}).
//
// Each factory also exposes a deliberately broken variant used by negative
// tests and benchmarks: outlines that claim too much must be rejected.

#pragma once

#include <unordered_map>

#include "og/proof_outline.hpp"

namespace rc11::og {

using lang::LocId;
using lang::Reg;
using lang::System;

// --- object-registration helpers ---------------------------------------------
//
// Both concrete object families (locks::LockObject and
// containers::ContainerObject) need the same two rituals: lazily registering
// scratch registers the first time a thread executes one of an object's
// methods, and instantiating C[O] by declaring the object's locations before
// running the client.  Both live here, once, so the two families cannot
// drift apart structurally.

/// Per-thread lazy register registration.  `Regs` is the implementation's
/// bundle of Library-tagged scratch registers; `get` returns the bundle for
/// the builder's thread, calling `make(tb)` exactly once per thread to
/// declare the registers on first use.  `reset` forgets all bundles — object
/// instances are reusable across instantiations, and registers belong to the
/// System being built, not to the object.
template <typename Regs>
class PerThreadRegs {
 public:
  void reset() { regs_.clear(); }

  template <typename Make>
  Regs& get(lang::ThreadBuilder& tb, Make&& make) {
    const auto t = tb.id();
    auto it = regs_.find(t);
    if (it == regs_.end()) {
      it = regs_.emplace(t, make(tb)).first;
    }
    return it->second;
  }

 private:
  std::unordered_map<std::uint32_t, Regs> regs_;
};

/// Builds C[O]: a fresh System on which `client` is run with `object`
/// filling the holes.  The object declares its library locations first
/// (before any thread exists), exactly as each family's `instantiate`
/// wrapper promises.
template <typename Object, typename Client>
[[nodiscard]] System instantiate_object(const Client& client, Object& object) {
  System sys;
  object.declare(sys);
  client(sys, object);
  return sys;
}

/// Figure 3: message passing via the synchronising stack.
struct Fig3Example {
  System sys;
  LocId d;  ///< client data variable
  LocId s;  ///< library stack
  Reg r1;   ///< pop result (thread 2)
  Reg r2;   ///< data read (thread 2)
  ProofOutline outline;
};

/// The Fig. 3 program with its (valid) proof outline.
Fig3Example make_fig3();

/// The same program with an outline claiming the *stale* postcondition
/// r2 = 0 — must be rejected by the checker.
Fig3Example make_fig3_broken();

/// Figure 7: data exchange under the abstract lock.
struct Fig7Example {
  System sys;
  LocId d1, d2;  ///< client data variables
  LocId l;       ///< library lock
  Reg rl;        ///< version of thread 2's acquire (1 or 3)
  Reg r1, r2;    ///< thread 2's reads of d1, d2
  ProofOutline outline;
};

/// The Fig. 7 program with its (valid) proof outline, including the paper's
/// invariant Inv = ¬(pc1 ∈ CS ∧ pc2 ∈ CS) ∧ rl ∈ {1, 3}.
Fig7Example make_fig7();

/// The Fig. 7 program with an outline wrongly claiming thread 2 always reads
/// fresh data (rl = 1 ⇒ r1 = 5) — must be rejected.
Fig7Example make_fig7_broken();

}  // namespace rc11::og

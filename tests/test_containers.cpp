// Tests for the ordered containers: the abstract synchronising stack (LIFO)
// and FIFO queue of objects/container.hpp (take order, empty takes,
// put^R/take^A synchronisation), their lock-protected implementations
// (containers/container_objects.hpp), refinement between the two (the
// paper's future-work direction: other concurrent data types in the same
// framework), and the queue syntax of the parser.
//
// Each check is written once, parameterised by the container's order (its
// LocKind), and run for both orders.  Each test keeps the name it had when
// the stack and the queue had separate suites.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "containers/container_objects.hpp"
#include "explore/explorer.hpp"
#include "memsem/location.hpp"
#include "objects/container.hpp"
#include "parser/parser.hpp"
#include "refinement/refinement.hpp"

namespace {

using namespace rc11;
using containers::AbstractContainer;
using containers::ClientArtifacts;
using containers::ClientProgram;
using containers::instantiate;
using containers::locked_container;
using memsem::Component;
using memsem::kStackEmpty;
using memsem::LocId;
using memsem::LocKind;
using memsem::MemOrder;
using memsem::MemState;
using memsem::OpId;
using memsem::Value;
namespace obj = rc11::objects;

// --- abstract semantics ------------------------------------------------------

template <LocKind Kind>
struct ContainerFixture : ::testing::Test {
  memsem::LocationTable locs;
  LocId d, l, box;

  ContainerFixture() {
    d = locs.add_var("d", Component::Client, 0);
    l = locs.add_object("l", Component::Library, LocKind::Lock);
    box = locs.add_object("box", Component::Library, Kind);
  }

  MemState make() { return MemState{locs, 3}; }

  void expect_fresh_is_empty() {
    MemState m = make();
    EXPECT_TRUE(obj::container_empty(m, box));
    EXPECT_EQ(obj::container_size(m, box), 0u);
    EXPECT_EQ(obj::container_take(m, 0, box, true), kStackEmpty);
  }

  /// Puts 10 and 20 from thread 0 and 30 from thread 1; the takes must
  /// return `taken` in that order, then Empty.
  void expect_takes_in_order(const std::vector<Value>& taken) {
    MemState m = make();
    obj::container_put(m, 0, box, 10, true);
    obj::container_put(m, 0, box, 20, true);
    obj::container_put(m, 1, box, 30, true);
    EXPECT_EQ(obj::container_size(m, box), 3u);
    for (const Value v : taken) {
      EXPECT_EQ(obj::container_take(m, 2, box, true), v);
    }
    EXPECT_EQ(obj::container_take(m, 2, box, true), kStackEmpty);
  }

  void expect_take_covers_matched_put() {
    MemState m = make();
    const OpId p = obj::container_put(m, 0, box, 10, true);
    EXPECT_FALSE(m.op(p).covered);
    obj::container_take(m, 1, box, true);
    EXPECT_TRUE(m.op(p).covered);
    EXPECT_TRUE(obj::container_empty(m, box));
  }

  void expect_acquiring_take_of_releasing_put_synchronises() {
    MemState m = make();
    const OpId wd = m.write(0, d, 5, MemOrder::Relaxed, m.mo(d)[0]);
    obj::container_put(m, 0, box, 1, /*releasing=*/true);
    const Value v = obj::container_take(m, 1, box, /*acquiring=*/true);
    EXPECT_EQ(v, 1);
    EXPECT_EQ(m.view_front(1, d), wd)
        << "Fig. 2: taking the message publishes the client write";
  }

  void expect_relaxed_take_does_not_synchronise() {
    MemState m = make();
    m.write(0, d, 5, MemOrder::Relaxed, m.mo(d)[0]);
    obj::container_put(m, 0, box, 1, /*releasing=*/true);
    obj::container_take(m, 1, box, /*acquiring=*/false);
    EXPECT_EQ(m.view_front(1, d), m.mo(d)[0])
        << "Fig. 1: a relaxed take leaves the client view stale";
  }

  void expect_acquiring_take_of_relaxed_put_does_not_synchronise() {
    MemState m = make();
    m.write(0, d, 5, MemOrder::Relaxed, m.mo(d)[0]);
    obj::container_put(m, 0, box, 1, /*releasing=*/false);
    obj::container_take(m, 1, box, /*acquiring=*/true);
    EXPECT_EQ(m.view_front(1, d), m.mo(d)[0]);
  }

  void expect_empty_take_does_not_mutate() {
    MemState m = make();
    std::vector<std::uint64_t> before;
    m.encode(before);
    obj::container_take(m, 0, box, true);
    std::vector<std::uint64_t> after;
    m.encode(after);
    EXPECT_EQ(before, after);
  }

  /// put 1, put 2, take, put 3, take, take: the takes return `taken`.
  void expect_interleaving(const std::vector<Value>& taken) {
    MemState m = make();
    obj::container_put(m, 0, box, 1, true);
    obj::container_put(m, 0, box, 2, true);
    EXPECT_EQ(obj::container_take(m, 1, box, true), taken[0]);
    obj::container_put(m, 1, box, 3, true);
    EXPECT_EQ(obj::container_take(m, 0, box, true), taken[1]);
    EXPECT_EQ(obj::container_take(m, 0, box, true), taken[2]);
    EXPECT_TRUE(obj::container_empty(m, box));
  }

  void expect_rejects_wrong_location() {
    MemState m = make();
    EXPECT_THROW((void)obj::container_next(m, l), rc11::support::InternalError);
    EXPECT_THROW((void)obj::container_next(m, d), rc11::support::InternalError);
    EXPECT_THROW(obj::container_put(m, 0, d, 1, true),
                 rc11::support::InternalError);
  }
};

// The stack's fixture keeps the name it shared with the lock's tests.
using ObjectFixture = ContainerFixture<LocKind::Stack>;
using QueueFixture = ContainerFixture<LocKind::Queue>;

TEST_F(ObjectFixture, FreshStackIsEmpty) { expect_fresh_is_empty(); }
TEST_F(QueueFixture, FreshQueueIsEmpty) { expect_fresh_is_empty(); }

TEST_F(ObjectFixture, PushPopIsLifo) { expect_takes_in_order({30, 20, 10}); }
TEST_F(QueueFixture, EnqueueDequeueIsFifo) {
  expect_takes_in_order({10, 20, 30});
}

TEST_F(ObjectFixture, PopCoversMatchedPush) {
  expect_take_covers_matched_put();
}
TEST_F(QueueFixture, DequeueCoversMatchedEnqueue) {
  expect_take_covers_matched_put();
}

TEST_F(ObjectFixture, AcquiringPopOfReleasingPushSynchronises) {
  expect_acquiring_take_of_releasing_put_synchronises();
}
TEST_F(QueueFixture, AcquiringDequeueOfReleasingEnqueueSynchronises) {
  expect_acquiring_take_of_releasing_put_synchronises();
}

TEST_F(ObjectFixture, RelaxedPopDoesNotSynchronise) {
  expect_relaxed_take_does_not_synchronise();
}
TEST_F(QueueFixture, RelaxedDequeueDoesNotSynchronise) {
  expect_relaxed_take_does_not_synchronise();
}

TEST_F(ObjectFixture, AcquiringPopOfRelaxedPushDoesNotSynchronise) {
  expect_acquiring_take_of_relaxed_put_does_not_synchronise();
}
TEST_F(QueueFixture, AcquiringDequeueOfRelaxedEnqueueDoesNotSynchronise) {
  expect_acquiring_take_of_relaxed_put_does_not_synchronise();
}

TEST_F(ObjectFixture, EmptyPopDoesNotMutate) {
  expect_empty_take_does_not_mutate();
}
TEST_F(QueueFixture, EmptyDequeueDoesNotMutate) {
  expect_empty_take_does_not_mutate();
}

TEST_F(ObjectFixture, InterleavedPushPopTracksTop) {
  expect_interleaving({2, 3, 1});
}
TEST_F(QueueFixture, InterleavedEnqueueDequeueTracksFront) {
  expect_interleaving({1, 2, 3});
}

TEST_F(ObjectFixture, StackApiRejectsWrongLocation) {
  expect_rejects_wrong_location();
}
TEST_F(QueueFixture, QueueApiRejectsWrongLocation) {
  expect_rejects_wrong_location();
}

// --- the locked implementations against the abstract containers --------------

using Outcomes = std::vector<std::vector<Value>>;
using MakeClient = std::function<ClientProgram(ClientArtifacts*)>;

/// The final values of the client's artifact registers under `object`.
Outcomes final_outcomes(containers::ContainerObject& object,
                        const MakeClient& client) {
  ClientArtifacts art;
  const auto sys = instantiate(client(&art), object);
  return explore::final_register_values(sys, explore::explore(sys), art.regs);
}

const MakeClient kPublication = [](ClientArtifacts* art) {
  return containers::publication_client(art);
};
const MakeClient kProducerConsumer = [](ClientArtifacts* art) {
  return containers::producer_consumer_client(2, art);
};

void expect_publishes_like_abstract(LocKind kind) {
  AbstractContainer abs{kind};
  const auto conc = locked_container(kind);
  const auto abs_out = final_outcomes(abs, kPublication);
  const auto conc_out = final_outcomes(*conc, kPublication);
  EXPECT_EQ(abs_out, conc_out);
  // The take either misses (Empty, d stale or fresh) or gets the message and
  // then *must* see d = 5.
  for (const auto& o : conc_out) {
    if (o[0] == 1) EXPECT_EQ(o[1], 5) << "publication guarantee violated";
  }
}

void expect_broken_unlock_leaks_stale_reads(LocKind kind) {
  ClientArtifacts art;
  const auto broken = locked_container(kind, 2, /*releasing_unlock=*/false);
  const auto sys = instantiate(containers::publication_client(&art), *broken);
  const auto result = explore::explore(sys);
  EXPECT_TRUE(explore::outcome_reachable(sys, result,
                                         {art.regs[0], art.regs[1]}, {1, 0}))
      << "with a relaxed unlock the taken message no longer publishes d";
}

/// Returns the abstract container's outcomes for order-specific checks.
Outcomes expect_agrees_on_producer_consumer(LocKind kind) {
  AbstractContainer abs{kind};
  const auto conc = locked_container(kind, 2);
  const auto abs_out = final_outcomes(abs, kProducerConsumer);
  EXPECT_EQ(abs_out, final_outcomes(*conc, kProducerConsumer));
  return abs_out;
}

TEST(LockedVectorStack, PublishesLikeTheAbstractStack) {
  expect_publishes_like_abstract(LocKind::Stack);
}

TEST(QueueRefinement, PublicationGuarantee) {
  expect_publishes_like_abstract(LocKind::Queue);
}

TEST(LockedVectorStack, BrokenUnlockLeaksStaleReads) {
  expect_broken_unlock_leaks_stale_reads(LocKind::Stack);
}

TEST(LockedRingQueue, BrokenUnlockLeaksStaleReads) {
  expect_broken_unlock_leaks_stale_reads(LocKind::Queue);
}

TEST(LockedVectorStack, ProducerConsumerIsLifoShaped) {
  containers::LockedVectorStack stack{2};
  for (const auto& o : final_outcomes(stack, kProducerConsumer)) {
    // Each pop returns Empty or a pushed value; a successful second pop after
    // a successful first pop must return the *other*, earlier value (LIFO:
    // first successful pop takes the top).
    for (const auto v : o) {
      EXPECT_TRUE(v == kStackEmpty || v == 10 || v == 11) << v;
    }
    if (o[0] == 11) EXPECT_TRUE(o[1] == 10 || o[1] == kStackEmpty);
    if (o[0] == 10 && o[1] != kStackEmpty) {
      // Popped 10 first: only possible before 11 was pushed; then the second
      // pop may return 11.
      EXPECT_EQ(o[1], 11);
    }
  }
}

TEST(LockedVectorStack, AgreesWithAbstractOnProducerConsumer) {
  (void)expect_agrees_on_producer_consumer(LocKind::Stack);
}

TEST(QueueRefinement, AgreesWithAbstractOnPipeline) {
  // FIFO: a successful first dequeue returns the oldest value 10.
  for (const auto& o : expect_agrees_on_producer_consumer(LocKind::Queue)) {
    EXPECT_NE(o[0], 11) << "queue must not return the newer element first";
  }
}

// --- refinement --------------------------------------------------------------

refinement::SimulationResult simulate(LocKind kind, const ClientProgram& client,
                                      unsigned capacity = 2,
                                      bool releasing_unlock = true) {
  AbstractContainer abs{kind};
  const auto abs_sys = instantiate(client, abs);
  const auto conc = locked_container(kind, capacity, releasing_unlock);
  const auto conc_sys = instantiate(client, *conc);
  return refinement::check_forward_simulation(abs_sys, conc_sys);
}

void expect_publication_simulation(LocKind kind) {
  const auto result = simulate(kind, containers::publication_client());
  EXPECT_TRUE(result.holds) << result.diagnosis;
  EXPECT_FALSE(result.truncated);
}

void expect_broken_unlock_fails_simulation(LocKind kind) {
  const auto result = simulate(kind, containers::publication_client(), 2,
                               /*releasing_unlock=*/false);
  EXPECT_FALSE(result.holds);
  EXPECT_FALSE(result.counterexample.empty());
}

void expect_trace_inclusion_agrees(LocKind kind) {
  AbstractContainer abs{kind};
  const auto abs_sys = instantiate(containers::publication_client(), abs);
  for (const bool releasing_unlock : {true, false}) {
    const auto conc = locked_container(kind, 2, releasing_unlock);
    const auto conc_sys = instantiate(containers::publication_client(), *conc);
    const auto r = refinement::check_trace_inclusion(abs_sys, conc_sys);
    EXPECT_EQ(r.holds, releasing_unlock) << r.what;
  }
}

TEST(StackRefinement, PublicationClientForwardSimulation) {
  expect_publication_simulation(LocKind::Stack);
}

TEST(QueueRefinement, ForwardSimulationHolds) {
  expect_publication_simulation(LocKind::Queue);
}

TEST(StackRefinement, ProducerConsumerForwardSimulation) {
  const auto result =
      simulate(LocKind::Stack, containers::producer_consumer_client(2));
  EXPECT_TRUE(result.holds) << result.diagnosis;
}

TEST(StackRefinement, BrokenUnlockFailsSimulation) {
  expect_broken_unlock_fails_simulation(LocKind::Stack);
}

TEST(QueueRefinement, PipelineSimulationHoldsAcrossCapacities) {
  for (const unsigned capacity : {2u, 3u}) {
    const auto result =
        simulate(LocKind::Queue, containers::producer_consumer_client(2),
                 capacity);
    EXPECT_TRUE(result.holds)
        << "capacity " << capacity << ": " << result.diagnosis;
  }
}

TEST(QueueRefinement, BrokenUnlockFailsSimulation) {
  expect_broken_unlock_fails_simulation(LocKind::Queue);
}

TEST(StackRefinement, TraceInclusionAgreesWithSimulation) {
  expect_trace_inclusion_agrees(LocKind::Stack);
}

TEST(QueueRefinement, TraceInclusionAgreesWithSimulation) {
  expect_trace_inclusion_agrees(LocKind::Queue);
}

// Capacity sweep: each implementation refines its specification for every
// capacity that accommodates the client's puts.
class CapacitySweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(CapacitySweep, SimulationHolds) {
  const unsigned capacity = GetParam();
  for (const LocKind kind : {LocKind::Stack, LocKind::Queue}) {
    const auto result =
        simulate(kind, containers::producer_consumer_client(2), capacity);
    EXPECT_TRUE(result.holds)
        << "capacity " << capacity << ": " << result.diagnosis;
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, CapacitySweep,
                         ::testing::Values(2u, 3u, 4u));

// Over capacity: n puts into n - 1 slots overwrite a slot, which forward
// simulation must report as a divergence from the abstract container.
struct Overflow {
  LocKind kind;
  unsigned puts;
  std::uint64_t abstract_states;
  std::uint64_t concrete_states;
};

// Without a printer gtest names each case by its raw bytes, padding after
// `kind` included, so the listed name changed from run to run.
void PrintTo(const Overflow& p, std::ostream* os) {
  *os << (p.kind == LocKind::Stack ? "stack" : "queue") << ", " << p.puts
      << " puts";
}

class OverCapacity : public ::testing::TestWithParam<Overflow> {};

TEST_P(OverCapacity, SimulationFails) {
  const Overflow& p = GetParam();
  const auto result = simulate(
      p.kind, containers::producer_consumer_client(p.puts), p.puts - 1);
  EXPECT_FALSE(result.holds);
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.abstract_states, p.abstract_states);
  EXPECT_EQ(result.concrete_states, p.concrete_states);
}

INSTANTIATE_TEST_SUITE_P(
    Puts, OverCapacity,
    ::testing::Values(Overflow{LocKind::Stack, 2, 19, 300},
                      Overflow{LocKind::Stack, 3, 69, 1463},
                      Overflow{LocKind::Queue, 2, 16, 323},
                      Overflow{LocKind::Queue, 3, 43, 1587}),
    [](const ::testing::TestParamInfo<Overflow>& info) {
      return std::string(info.param.kind == LocKind::Stack ? "stack"
                                                           : "queue") +
             std::to_string(info.param.puts);
    });

// --- parser round trip -------------------------------------------------------

TEST(QueueParser, EnqDeqSyntax) {
  auto p = parser::parse_program(R"(
    var d = 0;
    queue library q;
    thread producer {
      d := 5;
      q.enqR(1);
    }
    thread consumer {
      reg r1;
      reg r2;
      do { r1 <-A q.deq(); } until (r1 == 1);
      r2 <- d;
    }
  )");
  const auto result = explore::explore(p.sys);
  const auto outcomes = explore::final_register_values(
      p.sys, result, {p.reg("r1"), p.reg("r2")});
  const std::vector<std::vector<lang::Value>> expected{{1, 5}};
  EXPECT_EQ(outcomes, expected)
      << "enqR/deqA message passing must publish d = 5";
}

TEST(QueueParser, KindMismatchRejected) {
  EXPECT_THROW(parser::parse_program(R"(
    queue library q;
    thread t { reg r; r <- q.pop(); }
  )"),
               rc11::support::Error);
}

}  // namespace

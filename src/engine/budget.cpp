#include "engine/budget.hpp"

#include <cstdlib>
#include <string>

#include "support/diagnostics.hpp"

namespace rc11::engine {

const char* to_string(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::Complete:
      return "complete";
    case StopReason::StateCap:
      return "state-cap";
    case StopReason::MemCap:
      return "mem-cap";
    case StopReason::Deadline:
      return "deadline";
    case StopReason::Interrupted:
      return "interrupted";
    case StopReason::InjectedFault:
      return "injected-fault";
    case StopReason::EpisodeCap:
      return "episode-cap";
    case StopReason::WorkerLost:
      return "worker-lost";
  }
  return "unknown";
}

const char* describe_stop(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::Complete:
      return "the state space was exhausted";
    case StopReason::StateCap:
      return "the state cap was reached (raise --max-states)";
    case StopReason::MemCap:
      return "the visited-set memory budget was exhausted (raise --mem-budget)";
    case StopReason::Deadline:
      return "the wall-clock deadline expired (raise --deadline-ms)";
    case StopReason::Interrupted:
      return "the run was interrupted (SIGINT/SIGTERM)";
    case StopReason::InjectedFault:
      return "an injected fault stopped the run (RC11_FAULT)";
    case StopReason::EpisodeCap:
      return "the sampling episode budget ran out (raise --strategy "
             "sample:N or vary --seed)";
    case StopReason::WorkerLost:
      return "a worker process was lost for good (retry budget exhausted; "
             "raise RC11_DIST_RETRIES or rerun with --workers 1)";
  }
  return "unknown stop reason";
}

StopReason stop_reason_from_string(std::string_view name) {
  for (StopReason r :
       {StopReason::Complete, StopReason::StateCap, StopReason::MemCap,
        StopReason::Deadline, StopReason::Interrupted,
        StopReason::InjectedFault, StopReason::EpisodeCap,
        StopReason::WorkerLost}) {
    if (name == to_string(r)) return r;
  }
  support::fail("unknown stop reason '", std::string(name), "'");
}

namespace {

// Parses a strictly positive decimal count; the whole of `text` must be
// digits.
std::uint64_t parse_count(std::string_view text, std::string_view what,
                          std::string_view spec) {
  support::require(!text.empty(),
                   "RC11_FAULT '", std::string(spec), "': missing ", what);
  std::uint64_t value = 0;
  for (char c : text) {
    support::require(c >= '0' && c <= '9', "RC11_FAULT '", std::string(spec),
                     "': ", what, " must be a decimal number, got '",
                     std::string(text), "'");
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  support::require(value > 0, "RC11_FAULT '", std::string(spec), "': ", what,
                   " must be >= 1 (claim indices are 1-based)");
  return value;
}

}  // namespace

namespace {

// Parses one comma-free spec into `plan`, rejecting duplicate kinds and a
// second state-level spec.
void parse_one(FaultPlan& plan, std::string_view spec) {
  using Kind = FaultPlan::Kind;
  const std::size_t colon = spec.find(':');
  support::require(colon != std::string_view::npos,
                   "RC11_FAULT '", std::string(spec),
                   "': expected insert:N, stall:N:MS, mem:N, crash:N[:K], "
                   "hang:N[:K] or corrupt:N[:K]");
  const std::string_view kind = spec.substr(0, colon);
  std::string_view rest = spec.substr(colon + 1);

  const auto take_state_slot = [&](Kind k) {
    support::require(plan.kind == Kind::None,
                     "RC11_FAULT '", std::string(spec),
                     "': only one state-level fault (insert/stall/mem) may "
                     "be armed per plan");
    plan.kind = k;
  };
  if (kind == "insert") {
    take_state_slot(Kind::FailInsert);
    plan.at_state = parse_count(rest, "state index", spec);
  } else if (kind == "mem") {
    take_state_slot(Kind::TripMem);
    plan.at_state = parse_count(rest, "state index", spec);
  } else if (kind == "stall") {
    const std::size_t colon2 = rest.find(':');
    support::require(colon2 != std::string_view::npos,
                     "RC11_FAULT '", std::string(spec),
                     "': stall needs both a state index and a duration "
                     "(stall:N:MS)");
    take_state_slot(Kind::Stall);
    plan.at_state = parse_count(rest.substr(0, colon2), "state index", spec);
    plan.stall_ms =
        parse_count(rest.substr(colon2 + 1), "stall duration (ms)", spec);
  } else if (kind == "crash" || kind == "hang" || kind == "corrupt") {
    FaultPlan::ProcessFault pf;
    pf.kind = kind == "crash"  ? Kind::Crash
              : kind == "hang" ? Kind::Hang
                               : Kind::Corrupt;
    for (const auto& existing : plan.process) {
      support::require(existing.kind != pf.kind,
                       "RC11_FAULT '", std::string(spec), "': duplicate '",
                       std::string(kind), "' fault");
    }
    const std::size_t colon2 = rest.find(':');
    if (colon2 == std::string_view::npos) {
      pf.at_batch = parse_count(rest, "batch index", spec);
    } else {
      pf.at_batch = parse_count(rest.substr(0, colon2), "batch index", spec);
      pf.count = parse_count(rest.substr(colon2 + 1), "repeat count", spec);
    }
    plan.process.push_back(pf);
  } else {
    support::fail("RC11_FAULT '", std::string(spec), "': unknown fault kind '",
                  std::string(kind),
                  "' (expected insert, stall, mem, crash, hang or corrupt)");
  }
}

}  // namespace

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::size_t start = 0;
  bool any = false;
  while (true) {
    const std::size_t comma = spec.find(',', start);
    const std::string_view part =
        spec.substr(start, comma == std::string_view::npos ? std::string_view::npos
                                                           : comma - start);
    support::require(!part.empty(), "RC11_FAULT '", std::string(spec),
                     "': empty fault spec in comma-separated list");
    parse_one(plan, part);
    any = true;
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  support::require(any, "RC11_FAULT '", std::string(spec), "': empty spec");
  return plan;
}

FaultPlan FaultPlan::from_env() {
  const char* spec = std::getenv("RC11_FAULT");
  if (spec == nullptr || *spec == '\0') return {};
  return parse(spec);
}

}  // namespace rc11::engine

#include "engine/supervisor.hpp"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <thread>

#include "mathx/rng.hpp"

namespace rv::engine {

namespace {

/// Monotonic milliseconds.  The only clock read in the engine — it
/// paces deadlines and backoff and times attempts for the report;
/// nothing it returns ever reaches emitted bytes or cache content.
double now_ms() {
  // rv-lint: allow(nondeterminism) — supervisor pacing only, never output
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(t).count();
}

constexpr double kNoDeadline = 1e300;

struct Slot {
  pid_t pid = -1;  ///< running child, or -1 when waiting to (re)spawn
  double started_ms = 0.0;
  double deadline_ms = kNoDeadline;
  double not_before_ms = 0.0;  ///< earliest (re)spawn time (backoff)
  std::size_t attempts_started = 0;
  bool done = false;
  bool timed_out = false;  ///< this attempt was SIGKILLed by us
};

}  // namespace

const char* attempt_outcome_name(AttemptOutcome outcome) {
  switch (outcome) {
    case AttemptOutcome::kSuccess: return "success";
    case AttemptOutcome::kExitFailure: return "exit";
    case AttemptOutcome::kSignal: return "signal";
    case AttemptOutcome::kTimeout: return "timeout";
    case AttemptOutcome::kSpawnFailure: return "spawn";
  }
  return "?";
}

bool SupervisorReport::complete() const {
  for (const ShardStatus& s : shards) {
    if (!s.succeeded) return false;
  }
  return true;
}

std::vector<std::size_t> SupervisorReport::failed_shards() const {
  std::vector<std::size_t> failed;
  for (const ShardStatus& s : shards) {
    if (!s.succeeded) failed.push_back(s.shard);
  }
  return failed;
}

std::vector<std::size_t> SupervisorReport::missing_indices(
    std::size_t total_items) const {
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < total_items && !shards.empty(); ++i) {
    if (!shards[i % shards.size()].succeeded) missing.push_back(i);
  }
  return missing;
}

bool SupervisorReport::any_failures() const {
  for (const ShardStatus& s : shards) {
    for (const ShardAttempt& a : s.attempts) {
      if (a.outcome != AttemptOutcome::kSuccess) return true;
    }
  }
  return false;
}

std::string SupervisorReport::table() const {
  std::string out = "shard  attempt  outcome  code  elapsed_ms\n";
  char line[96];
  for (const ShardStatus& s : shards) {
    for (std::size_t k = 0; k < s.attempts.size(); ++k) {
      const ShardAttempt& a = s.attempts[k];
      std::snprintf(line, sizeof line, "%5zu  %7zu  %-7s  %4d  %10.1f\n",
                    s.shard, k + 1, attempt_outcome_name(a.outcome), a.code,
                    a.elapsed_ms);
      out += line;
    }
  }
  return out;
}

std::string SupervisorReport::to_json(
    std::size_t total_items, const std::vector<std::size_t>& missing) const {
  const auto join = [](const std::vector<std::size_t>& values) {
    std::string list;
    for (const std::size_t v : values) {
      if (!list.empty()) list += ", ";
      list += std::to_string(v);
    }
    return list;
  };
  std::string out = "{\n";
  out += std::string("  \"complete\": ") + (complete() ? "true" : "false");
  out += ",\n  \"num_shards\": " + std::to_string(shards.size());
  out += ",\n  \"total_items\": " + std::to_string(total_items);
  out += ",\n  \"failed_shards\": [" + join(failed_shards()) + "]";
  out += ",\n  \"missing_indices\": [" + join(missing) + "]";
  out += ",\n  \"shards\": [\n";
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const ShardStatus& shard = shards[s];
    out += "    {\"shard\": " + std::to_string(shard.shard) +
           ", \"succeeded\": " + (shard.succeeded ? "true" : "false") +
           ", \"attempts\": [";
    for (std::size_t k = 0; k < shard.attempts.size(); ++k) {
      const ShardAttempt& a = shard.attempts[k];
      char ms[32];
      std::snprintf(ms, sizeof ms, "%.1f", a.elapsed_ms);
      out += std::string(k == 0 ? "" : ", ") + "{\"attempt\": " +
             std::to_string(k + 1) + ", \"outcome\": \"" +
             attempt_outcome_name(a.outcome) +
             "\", \"code\": " + std::to_string(a.code) +
             ", \"elapsed_ms\": " + ms + "}";
    }
    out += std::string("]}") + (s + 1 < shards.size() ? "," : "") + "\n";
  }
  out += "  ]\n}\n";
  return out;
}

SupervisorReport supervise_shards(
    std::size_t num_shards, const std::function<int(std::size_t)>& child_main,
    const SupervisorOptions& options) {
  SupervisorReport report;
  report.shards.resize(num_shards);
  std::vector<Slot> slots(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) report.shards[s].shard = s;
  const std::size_t max_attempts = options.retries + 1;
  std::size_t open = num_shards;

  const auto record_failure = [&](std::size_t s, double now) {
    Slot& slot = slots[s];
    slot.pid = -1;
    if (slot.attempts_started >= max_attempts) {
      slot.done = true;
      --open;
      return;
    }
    // Exponential backoff with deterministic jitter: shard and attempt
    // seed the stream, so reruns pace identically but concurrent
    // retried shards spread out instead of stampeding.
    const std::size_t shift =
        std::min<std::size_t>(slot.attempts_started - 1, 20);
    const double base =
        static_cast<double>(options.backoff_ms) * static_cast<double>(1u << shift);
    mathx::Xoshiro256 rng(options.backoff_seed ^
                          (0x9e3779b97f4a7c15ull * (s + 1)) ^
                          (0xbf58476d1ce4e5b9ull * slot.attempts_started));
    const double jitter =
        rng.uniform(0.0, static_cast<double>(options.backoff_ms));
    slot.not_before_ms = now + base + jitter;
  };

  const auto spawn = [&](std::size_t s, double now) {
    Slot& slot = slots[s];
    const pid_t pid = ::fork();
    if (pid < 0) {
      ++slot.attempts_started;
      report.shards[s].attempts.push_back(
          {AttemptOutcome::kSpawnFailure, errno, 0.0});
      record_failure(s, now);
      return;
    }
    if (pid == 0) {
      int code = 2;
      try {
        code = child_main(s);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "supervise_shards[shard %zu]: %s\n", s, e.what());
        code = 2;
      }
      std::fflush(nullptr);
      ::_exit(code);
    }
    slot.pid = pid;
    slot.started_ms = now;
    slot.deadline_ms = options.timeout_sec > 0.0
                           ? now + options.timeout_sec * 1000.0
                           : kNoDeadline;
    slot.timed_out = false;
    ++slot.attempts_started;
  };

  while (open > 0) {
    const double now = now_ms();
    bool progressed = false;
    for (std::size_t s = 0; s < num_shards; ++s) {
      Slot& slot = slots[s];
      if (slot.done) continue;
      if (slot.pid < 0) {
        if (now >= slot.not_before_ms) {
          spawn(s, now);
          progressed = true;
        }
        continue;
      }
      int status = 0;
      const pid_t r = ::waitpid(slot.pid, &status, WNOHANG);
      if (r == slot.pid) {
        progressed = true;
        ShardAttempt attempt;
        attempt.elapsed_ms = now - slot.started_ms;
        if (slot.timed_out) {
          attempt.outcome = AttemptOutcome::kTimeout;
          attempt.code = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
        } else if (WIFEXITED(status)) {
          attempt.code = WEXITSTATUS(status);
          attempt.outcome = attempt.code == 0 ? AttemptOutcome::kSuccess
                                              : AttemptOutcome::kExitFailure;
        } else {
          attempt.outcome = AttemptOutcome::kSignal;
          attempt.code = WIFSIGNALED(status) ? WTERMSIG(status) : -1;
        }
        report.shards[s].attempts.push_back(attempt);
        if (attempt.outcome == AttemptOutcome::kSuccess) {
          report.shards[s].succeeded = true;
          slot.pid = -1;
          slot.done = true;
          --open;
        } else {
          record_failure(s, now);
        }
      } else if (r < 0) {
        // waitpid itself failed (should not happen): count the attempt
        // as lost rather than spinning on it forever.
        progressed = true;
        report.shards[s].attempts.push_back(
            {AttemptOutcome::kSpawnFailure, errno, now - slot.started_ms});
        record_failure(s, now);
      } else if (!slot.timed_out && now >= slot.deadline_ms) {
        // Deadline overrun: SIGKILL now, reap (and classify as
        // kTimeout) on a later poll.
        ::kill(slot.pid, SIGKILL);
        slot.timed_out = true;
        progressed = true;
      }
    }
    if (open > 0 && !progressed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  return report;
}

}  // namespace rv::engine

// Logic shared by the perfbench binary and its unit tests: tail percentiles,
// span trees with self-time arithmetic and Chrome trace export, the
// committed reference file, and the output checks.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/serve/serve.h"
#include "src/util/types.h"

namespace perfbench {

using csq::u32;
using csq::u64;
using csq::usize;

// ---- Percentiles -------------------------------------------------------------

// A nearest-rank percentile pick. `pct` is the percentile actually reported:
// the requested one, or a lower one when fewer than `kTailSamples` samples lie
// beyond the requested rank.
struct PercentilePick {
  u64 value = 0;
  double pct = 0.0;
  usize rank = 0;  // 1-based rank in the sorted samples
  usize n = 0;
};

inline constexpr usize kTailSamples = 10;

// Nearest-rank percentile of `xs`, clamped to the highest rank that still has
// at least kTailSamples samples beyond it (rank 1 when n <= kTailSamples).
PercentilePick TailPercentile(std::vector<u64> xs, double p);

// Median of a non-empty sample (mean of the middle two for even sizes).
double Median(std::vector<double> xs);

// ---- Spans ---------------------------------------------------------------------

// One timed interval at a layer boundary. Children name their parent by index
// in the span vector, a parent always precedes its children, and the spans of
// one layer do not overlap. `split` partitions the span's self time among
// sub-layers whose totals were measured but whose placement inside the span
// was not (the serial-engine token, commit and post-commit intervals of one
// run); the remainder stays with `layer`.
struct Span {
  std::string name;
  std::string layer;
  int parent = -1;
  u64 start_ns = 0;
  u64 end_ns = 0;
  std::vector<std::pair<std::string, u64>> split;
  std::vector<std::pair<std::string, double>> args;

  u64 Duration() const { return end_ns > start_ns ? end_ns - start_ns : 0; }
};

// Appends a span and returns its index.
int AddSpan(std::vector<Span>* spans, Span s);

// Per-span self time: the span's duration minus the part of it that the union
// of its children's intervals covers.
std::vector<u64> SelfTimes(const std::vector<Span>& spans);

// Self time per layer, in order of first appearance. The layers tile the
// root span, so they sum to no more than it.
struct LayerTime {
  std::string layer;
  u64 self_ns = 0;
};
std::vector<LayerTime> LayerSelfTimes(const std::vector<Span>& spans);

// Chrome trace-event JSON ("X" complete events, microsecond timestamps
// relative to the earliest span), which Perfetto and chrome://tracing open.
void WriteChromeTrace(std::ostream& os, const std::vector<Span>& spans);

// ---- Reference ------------------------------------------------------------------

struct PaperKey {
  std::string program;
  std::string backend;
  u32 threads = 0;
  auto operator<=>(const PaperKey&) const = default;
};

struct PaperRun {
  u64 vtime = 0;
  u64 checksum = 0;
  u64 trace_digest = 0;
};

struct ShardRef {
  u64 requests = 0;
  u64 response_digest = 0;
  u64 state_digest = 0;
};

struct LogRef {
  u64 requests = 0;
  u64 digest = 0;
};

// Every output the benchmark checks at the reference seed.
struct Reference {
  u64 seed = 0;
  std::map<PaperKey, PaperRun> paper;
  std::map<std::string, LogRef> logs;                          // by workload
  std::map<std::pair<std::string, u32>, ShardRef> shards;      // (workload, shard)
};

// Line format: "seed S", "paper PROGRAM BACKEND THREADS VTIME CHECKSUM DIGEST",
// "log WORKLOAD REQUESTS DIGEST", "shard WORKLOAD SHARD REQUESTS RESP STATE";
// hashes in hex, '#' starts a comment. Returns false with `err` set on a
// malformed line.
bool ParseReference(std::istream& is, Reference* ref, std::string* err);
void WriteReference(std::ostream& os, const Reference& ref);

// ---- Checks ---------------------------------------------------------------------------

// Counts checked outputs and failures; keeps the first few failure messages.
struct Verdict {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;

  void Check(bool ok, const std::string& what, u64 weight = 1);
  double ErrorRate() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

// One simulated program run as the sweep saw it.
struct PaperResult {
  PaperKey key;
  bool racy = false;
  bool deterministic = true;  // false for the pthreads baseline
  PaperRun run;
};

// Checks one run against the reference. At the reference seed every field
// must match. At any seed a deterministic backend's checksum must match the
// reference's (checksums do not move with timing jitter), and a race-free
// program's checksum must match the reference pthreads checksum at the same
// thread count.
bool CheckPaperRun(const Reference& ref, bool at_ref_seed, const PaperResult& r,
                   std::string* why);

// At the reference seed, the thread count harness::BestOverThreads should
// pick for (program, backend): the lowest reference vtime, first on ties.
u32 ReferenceBestThreads(const Reference& ref, const std::string& program,
                         const std::string& backend);

// Seed-independent key-value invariants of one shard's routed log and its
// responses (puts carry unique nonzero payloads):
//  * the puts of one (tenant, key) form a chain: exactly one returns 0 and
//    every other returns the payload of a different put of that key, each
//    payload at most once;
//  * a get returns 0 or the payload of some put of that key.
// Returns the number of requests that break an invariant (scans are not
// checked); a response count that differs from the log fails every request.
u64 CountKvViolations(const std::vector<csq::serve::Request>& log,
                      const std::vector<u64>& responses);

// Digest of a request log (the serve workloads' input).
u64 LogDigest(const std::vector<csq::serve::Request>& log);

}  // namespace perfbench

// The three benchmark workloads: their pinned configurations and one timed
// pass each, untraced or traced.
#pragma once

#include <string>
#include <vector>

#include "perfbench/src/bench_lib.h"
#include "src/rt/api.h"
#include "src/serve/loadgen.h"
#include "src/serve/serve.h"

namespace perfbench {

enum class Workload { kPaperSweep, kServeSharded, kServeSingle };

// False when `name` is not a workload.
bool ParseWorkload(const std::string& name, Workload* out);
std::string WorkloadName(Workload w);

// The seed the committed reference was generated at.
inline constexpr u64 kReferenceSeed = 1;

// Thread counts of the paper sweep (the paper-comparable <= 8-thread sweep).
const std::vector<u32>& PaperThreads();

// Every config is built field by field: nothing is read from the environment.
// The seed drives the cost model's timing jitter (paper) or the request log
// and the shard universes' jitter (serve).
csq::rt::RuntimeConfig PaperConfig(u64 seed);
csq::serve::LoadSpec ServeLoad(Workload w, u64 seed);
csq::serve::ServeConfig ServeConfigFor(Workload w, u64 seed, csq::rt::Backend backend);

// Host resource usage of the calling process.
struct Usage {
  u64 cpu_ns = 0;  // user + system
  u64 vol_ctx_switches = 0;
  u64 max_rss_kib = 0;
};
Usage ReadUsage();
u64 NowNs();  // steady clock

// ---- paper_sweep -----------------------------------------------------------

struct PaperPass {
  std::vector<PaperResult> best;  // one per (program, backend), sweep order
  u64 wall_ns = 0;
  u64 cpu_ns = 0;
  u64 best_call_ns = 0;  // time inside harness::BestOverThreads
  u64 runs = 0;          // RunOne calls made
};

// One sweep: harness::BestOverThreads for every program and backend.
PaperPass RunPaperPass(const csq::rt::RuntimeConfig& base);

// Host time of a traced sweep, summed over its runs.
struct PaperTimes {
  u64 run_ns = 0;        // sum of RunResult::host_wall_ns
  u64 construct_ns = 0;  // RunOne time minus Run time
  u64 token_held_ns = 0;
  u64 commit_ns = 0;
  u64 gc_ns = 0;  // post-commit token tail: GC under the token, and more
};

struct TracedPaperPass {
  PaperPass pass;                        // best picks, as BestOverThreads makes them
  std::vector<PaperResult> all;          // every run
  std::vector<csq::rt::RunResult> runs;  // the same runs' counters
  PaperTimes times;
  std::vector<Span> spans;
};

// The same sweep with a span per best-of loop and per harness::RunOne, and a
// SyncObserver timing token-held, commit (grant -> OnCommit) and post-commit
// (OnCommit -> release) intervals.
TracedPaperPass RunTracedPaperPass(const csq::rt::RuntimeConfig& base);

// ---- serve_* ---------------------------------------------------------------------

struct ServePass {
  csq::serve::ServeResult result;
  u64 start_ns = 0;  // steady clock at the Serve call
  u64 wall_ns = 0;   // Serve plus EncodeRecording
  u64 cpu_ns = 0;
  u64 serve_ns = 0;
  u64 encode_ns = 0;
  u64 recording_bytes = 0;
  std::vector<u64> encode_ns_by_shard;
};

// One pass: serve::ShardServer::Serve, then serve::EncodeRecording for every
// shard when recording is on.
ServePass RunServePass(const csq::serve::ServeConfig& cfg,
                       const std::vector<csq::serve::Request>& log);

// Spans of a serve pass: Serve, the shard pool inside it and the encodings.
// The server does not expose when each shard ran, so the pool is one span of
// ServeResult::wall_ns ending when Serve returns; the shards' summed host
// time and the hottest shard are its args. Serve's self time outside the pool
// is the front end: its own routing of the log, shard set-up and digests.
std::vector<Span> ServeSpans(const ServePass& p);

}  // namespace perfbench

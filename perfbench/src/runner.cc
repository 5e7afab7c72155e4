#include "perfbench/src/runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>

#include "src/harness/harness.h"
#include "src/wl/workloads.h"

namespace perfbench {

using namespace csq;  // NOLINT

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kPaperSweep, Workload::kServeSharded, Workload::kServeSingle}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

std::string WorkloadName(Workload w) {
  switch (w) {
    case Workload::kPaperSweep:
      return "paper_sweep";
    case Workload::kServeSharded:
      return "serve_sharded";
    case Workload::kServeSingle:
      return "serve_single";
  }
  return "?";
}

const std::vector<u32>& PaperThreads() {
  static const std::vector<u32> kThreads = {2, 4, 8};
  return kThreads;
}

rt::RuntimeConfig PaperConfig(u64 seed) {
  rt::RuntimeConfig cfg;  // the paper's defaults for every optimization knob
  cfg.nthreads = 8;       // overwritten per run by harness::RunOne
  cfg.segment.size_bytes = 16 << 20;
  cfg.host_workers = 1;
  cfg.floor_lease = true;
  // +-1% hardware timing noise, drawn from the seed. Deterministic backends'
  // checksums do not depend on it; virtual times move slightly.
  cfg.costs.jitter_bp = 100;
  cfg.costs.jitter_seed = seed;
  cfg.race = race::RaceConfig{};  // analyzer off
  cfg.observer = nullptr;
  cfg.token_arbiter = nullptr;
  return cfg;
}

serve::LoadSpec ServeLoad(Workload w, u64 seed) {
  serve::LoadSpec spec;
  spec.tenants = 96;
  spec.tenant_zipf_s = 1.1;
  spec.users = 2 << 20;
  spec.min_requests = 4;
  spec.max_requests = 28;
  spec.keys_per_tenant = 512;
  spec.key_zipf_s = 0.9;
  spec.churn_window = 48;
  spec.seed = seed;
  if (w == Workload::kServeSharded) {
    spec.sessions = 2400;  // the serve_shards write-heavy mix
    spec.put_pct = 25;
    spec.scan_pct = 5;
  } else {
    spec.sessions = 1200;  // read-mostly
    spec.put_pct = 5;
    spec.scan_pct = 20;
  }
  return spec;
}

serve::ServeConfig ServeConfigFor(Workload w, u64 seed, rt::Backend backend) {
  const bool sharded = w == Workload::kServeSharded;
  serve::ServeConfig cfg;
  cfg.shards = sharded ? 8 : 1;
  cfg.serve_threads = sharded ? 4 : 1;
  cfg.max_live_sessions = 8;
  cfg.kv_buckets = 512;
  cfg.heap_bytes = 2 << 20;
  cfg.segment_bytes = 16 << 20;
  cfg.stack_bytes = 128 * 1024;
  cfg.backend = backend;
  cfg.host_workers = 1;
  cfg.thread_reuse = true;
  cfg.jitter_seed = seed;
  cfg.jitter_bp = 1200;
  cfg.work_per_request = 300;
  cfg.record_trace = sharded && backend != rt::Backend::kPthreads;
  return cfg;
}

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<u64>(tv.tv_sec) * 1000000000ULL + static_cast<u64>(tv.tv_usec) * 1000ULL;
  };
  Usage u;
  u.cpu_ns = ns(ru.ru_utime) + ns(ru.ru_stime);
  u.vol_ctx_switches = static_cast<u64>(ru.ru_nvcsw);
  u.max_rss_kib = static_cast<u64>(ru.ru_maxrss);
  return u;
}

u64 NowNs() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

// ---- paper_sweep -----------------------------------------------------------

namespace {

PaperResult ToResult(const wl::WorkloadInfo& w, rt::Backend b, u32 threads,
                     const rt::RunResult& r) {
  PaperResult out;
  out.key = PaperKey{std::string(w.name), std::string(rt::BackendName(b)), threads};
  out.racy = w.racy;
  out.deterministic = b != rt::Backend::kPthreads;
  out.run = PaperRun{r.vtime, r.checksum, r.trace_digest};
  return out;
}

// Host time of the token-held intervals of one serial-engine run. Callbacks
// arrive on the one host thread that runs every fiber, and the token has one
// holder at a time, so grant and release strictly alternate. The token-held
// and commit intervals may include other fibers' local work. The post-commit
// tail (OnCommit -> release) holds the GC that runs under the token, plus
// Depart, under-token callbacks and barrier bookkeeping; the GC that runs
// after the release (barrier and async-lock paths) falls outside it.
class TokenTimer final : public rt::SyncObserver {
 public:
  void Reset() { *this = TokenTimer(); }

  void OnAcquire(u32, u64) override {}
  void OnRelease(u32, u64) override {}
  void OnCommit(u32, const std::vector<u32>&) override {
    if (held_ && commit_at_ == 0) {
      commit_at_ = NowNs();
    }
  }
  void OnTokenGrant(u32, u64, u64) override {
    held_ = true;
    grant_at_ = NowNs();
    commit_at_ = 0;
  }
  void OnTokenRelease(u32, u64, u64) override {
    if (!held_) {
      return;
    }
    const u64 now = NowNs();
    held_ns += now - grant_at_;
    if (commit_at_ != 0) {
      commit_ns += commit_at_ - grant_at_;
      gc_ns += now - commit_at_;
    }
    held_ = false;
  }

  u64 held_ns = 0;
  u64 commit_ns = 0;  // grant -> OnCommit
  u64 gc_ns = 0;      // OnCommit -> release: the post-commit tail

 private:
  bool held_ = false;
  u64 grant_at_ = 0;
  u64 commit_at_ = 0;
};

}  // namespace

PaperPass RunPaperPass(const rt::RuntimeConfig& base) {
  PaperPass p;
  const Usage u0 = ReadUsage();
  const u64 t0 = NowNs();
  for (const wl::WorkloadInfo& w : wl::AllWorkloads()) {
    for (rt::Backend b : harness::FigureBackends()) {
      const u64 s = NowNs();
      const harness::BestResult br = harness::BestOverThreads(w, b, PaperThreads(), &base);
      p.best_call_ns += NowNs() - s;
      p.best.push_back(ToResult(w, b, br.at_threads, br.result));
      p.runs += PaperThreads().size();
    }
  }
  p.wall_ns = NowNs() - t0;
  p.cpu_ns = ReadUsage().cpu_ns - u0.cpu_ns;
  return p;
}

TracedPaperPass RunTracedPaperPass(const rt::RuntimeConfig& base) {
  TracedPaperPass out;
  PaperTimes& times = out.times;
  TokenTimer timer;
  rt::RuntimeConfig cfg = base;
  cfg.observer = &timer;

  const Usage u0 = ReadUsage();
  const u64 t0 = NowNs();
  const int root = AddSpan(&out.spans, Span{"paper_sweep pass", "pass", -1, t0, 0, {}, {}});
  for (const wl::WorkloadInfo& w : wl::AllWorkloads()) {
    for (rt::Backend b : harness::FigureBackends()) {
      const std::string label = std::string(w.name) + "/" + std::string(rt::BackendName(b));
      const int best =
          AddSpan(&out.spans, Span{"best-of " + label, "harness", root, NowNs(), 0, {}, {}});
      // The selection rule of harness::BestOverThreads, with each run timed.
      PaperResult pick;
      u64 pick_vtime = ~0ULL;
      for (u32 t : PaperThreads()) {
        timer.Reset();
        const u64 s = NowNs();
        const rt::RunResult r = harness::RunOne(w, b, t, &cfg);
        const u64 e = NowNs();
        const u64 dur = e - s;
        const u64 run = std::min(r.host_wall_ns, dur);
        const u64 held = std::min(timer.held_ns, run);
        const u64 commit = std::min(timer.commit_ns, held);
        const u64 gc = std::min(timer.gc_ns, held - commit);
        // What is left of the RunOne span after the split is MakeRuntime and
        // teardown: RunOne time minus Run time.
        Span sp{"RunOne " + label + "@" + std::to_string(t), "rt.construct", best, s, e, {}, {}};
        sp.split = {{"sim", run - held},
                    {"clock", held - commit - gc},
                    {"conv.commit", commit},
                    {"conv.post_commit", gc}};
        sp.args = {{"threads", t},
                   {"vtime", static_cast<double>(r.vtime)},
                   {"token_grants", static_cast<double>(r.token_acquires)},
                   {"commits", static_cast<double>(r.commits)}};
        AddSpan(&out.spans, std::move(sp));

        times.run_ns += run;
        times.construct_ns += dur - run;
        times.token_held_ns += held;
        times.commit_ns += commit;
        times.gc_ns += gc;

        const PaperResult res = ToResult(w, b, t, r);
        out.all.push_back(res);
        out.runs.push_back(r);
        if (r.vtime < pick_vtime) {
          pick_vtime = r.vtime;
          pick = res;
        }
        ++out.pass.runs;
      }
      out.spans[static_cast<usize>(best)].end_ns = NowNs();
      out.pass.best.push_back(pick);
    }
  }
  out.pass.wall_ns = NowNs() - t0;
  out.pass.cpu_ns = ReadUsage().cpu_ns - u0.cpu_ns;
  out.spans[static_cast<usize>(root)].end_ns = t0 + out.pass.wall_ns;
  return out;
}

// ---- serve_* ---------------------------------------------------------------------

ServePass RunServePass(const serve::ServeConfig& cfg, const std::vector<serve::Request>& log) {
  ServePass p;
  const Usage u0 = ReadUsage();
  p.start_ns = NowNs();
  p.result = serve::ShardServer(cfg).Serve(log);
  u64 t = NowNs();
  p.serve_ns = t - p.start_ns;
  if (cfg.record_trace) {
    for (const serve::ShardResult& s : p.result.shards) {
      p.recording_bytes += serve::EncodeRecording(s).size();
      const u64 e = NowNs();
      p.encode_ns_by_shard.push_back(e - t);
      p.encode_ns += e - t;
      t = e;
    }
  }
  p.wall_ns = t - p.start_ns;
  p.cpu_ns = ReadUsage().cpu_ns - u0.cpu_ns;
  return p;
}

std::vector<Span> ServeSpans(const ServePass& p) {
  std::vector<Span> spans;
  const int root =
      AddSpan(&spans, Span{"serve pass", "pass", -1, p.start_ns, p.start_ns + p.wall_ns, {}, {}});
  const u64 serve_end = p.start_ns + p.serve_ns;
  const int srv = AddSpan(
      &spans, Span{"ShardServer::Serve", "serve.frontend", root, p.start_ns, serve_end, {}, {}});
  u64 busy = 0, hottest = 0;
  for (const serve::ShardResult& s : p.result.shards) {
    busy += s.run.host_wall_ns;
    hottest = std::max(hottest, s.run.host_wall_ns);
  }
  Span pool{"shard pool", "serve.pool", srv, serve_end - std::min(p.result.wall_ns, p.serve_ns),
            serve_end, {}, {}};
  pool.args = {{"shards", static_cast<double>(p.result.shards.size())},
               {"shard_busy_ns", static_cast<double>(busy)},
               {"hottest_shard_ns", static_cast<double>(hottest)},
               {"requests", static_cast<double>(p.result.requests)}};
  AddSpan(&spans, std::move(pool));

  u64 t = serve_end;
  for (usize s = 0; s < p.encode_ns_by_shard.size(); ++s) {
    const u64 e = t + p.encode_ns_by_shard[s];
    AddSpan(&spans,
            Span{"EncodeRecording shard " + std::to_string(s), "serve.encode", root, t, e, {}, {}});
    t = e;
  }
  return spans;
}

}  // namespace perfbench

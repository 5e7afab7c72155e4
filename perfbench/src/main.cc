// perfbench — the repository benchmark.
//
//   perfbench --workload paper_sweep|serve_sharded|serve_single --seed N
//             --seconds S --trace 0|1 --reference FILE --out-dir DIR
//   perfbench --regenerate FILE
//
// Runs timed passes of one workload until S seconds have gone by, checks
// every output against the reference (or, at other seeds, against
// seed-independent invariants), and prints the metrics. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}, with the end-to-end metrics when --trace 0 and the per-layer
// metrics when --trace 1. A --trace 1 run adds one traced pass, writes it as
// Chrome trace-event JSON into DIR and prints a per-layer self-time table.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/bench_lib.h"
#include "perfbench/src/runner.h"
#include "src/harness/harness.h"
#include "src/simd/kernels.h"
#include "src/sim/time_category.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace csq;        // NOLINT
using namespace perfbench;  // NOLINT

namespace {

// Set-up repetitions before the first pass and after each pass.
constexpr int kSetupReps = 10;

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string reference;
  std::string out_dir = ".";
  std::string regenerate;
};

[[noreturn]] void Die(const std::string& msg) {
  std::cerr << "perfbench: " << msg << "\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      Die("missing value for " + k);
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !v.empty();
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == nullptr || *end != '\0' || !(a.seconds > 0.0)) {
        Die("--seconds must be positive");
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") {
        Die("--trace must be 0 or 1");
      }
      a.trace = v == "1" ? 1 : 0;
    } else if (k == "--reference") {
      a.reference = v;
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else if (k == "--regenerate") {
      a.regenerate = v;
    } else {
      Die("unknown argument " + k);
    }
  }
  if (a.regenerate.empty() && (a.workload.empty() || !have_seed || a.reference.empty())) {
    Die("usage: perfbench --workload W --seed N --seconds S --trace 0|1 --reference FILE "
        "[--out-dir DIR] | --regenerate FILE");
  }
  return a;
}

// Knobs the library reads from the environment would silently change what is
// measured, so the benchmark refuses to run under any of them.
void RefuseEnvKnobs() {
  for (const char* k : {"CSQ_QUICK", "CSQ_HOST_WORKERS", "CSQ_RACE_FIRST_EXIT",
                        "CSQ_RACE_SUPPRESSIONS", "CSQ_SIMD"}) {
    if (std::getenv(k) != nullptr) {
      Die(std::string(k) + " is set; unset it (the benchmark pins every config)");
    }
  }
}

Reference LoadReference(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    Die("cannot read reference " + path);
  }
  Reference ref;
  std::string err;
  if (!ParseReference(in, &ref, &err)) {
    Die(path + ": " + err);
  }
  return ref;
}

double Secs(u64 ns) { return static_cast<double>(ns) / 1e9; }

// The set-up of a run: the reference, plus the request log when serving. It
// is timed over repetitions before the first pass and after each pass, so
// that the median samples the same host states as the passes do. Only the
// first repetition's reference and log are kept.
struct Setup {
  std::string reference_path;
  bool serving = false;
  serve::LoadSpec load;
  Reference ref;
  std::vector<serve::Request> log;
  std::vector<double> setup_s, loadgen_s;

  void Repeat(int n) {
    for (int i = 0; i < n; ++i) {
      const u64 t0 = NowNs();
      Reference r = LoadReference(reference_path);
      const u64 t1 = NowNs();
      std::vector<serve::Request> l;
      if (serving) {
        l = serve::GenerateLoad(load);
      }
      const u64 t2 = NowNs();
      setup_s.push_back(Secs(t2 - t0));
      loadgen_s.push_back(Secs(t2 - t1));
      if (setup_s.size() == 1) {
        ref = std::move(r);
        log = std::move(l);
      }
    }
  }
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Ordered metric set: name -> (value, unit).
struct Metrics {
  std::vector<std::string> order;
  std::map<std::string, std::pair<double, std::string>> m;

  void Set(const std::string& name, double v, const std::string& unit) {
    if (m.count(name) == 0) {
      order.push_back(name);
    }
    m[name] = {v, unit};
  }
  std::string Json() const {
    std::string s = "{";
    for (usize i = 0; i < order.size(); ++i) {
      const auto& [v, unit] = m.at(order[i]);
      s += (i == 0 ? "\"" : ", \"") + order[i] + "\": {\"value\": " + Num(v) +
           ", \"unit\": \"" + unit + "\"}";
    }
    return s + "}";
  }
  void Print(std::ostream& os, const std::string& title) const {
    os << title << "\n";
    for (const std::string& k : order) {
      const auto& [v, unit] = m.at(k);
      char buf[160];
      std::snprintf(buf, sizeof(buf), "  %-26s %18.6g %s\n", k.c_str(), v, unit.c_str());
      os << buf;
    }
  }
};

// Everything one invocation measured.
struct Outcome {
  Verdict verdict;
  Metrics e2e;
  Metrics layers;
  std::vector<Span> spans;  // the traced pass (empty without --trace 1)
  u64 untraced_wall_ns = 0;
  u64 traced_wall_ns = 0;
  int passes = 0;
};

template <typename T>
double MedianOf(const std::vector<T>& xs, double (*f)(const T&)) {
  std::vector<double> v;
  for (const T& x : xs) {
    v.push_back(f(x));
  }
  return Median(std::move(v));
}

void SetLatency(Metrics* m, const std::vector<u64>& samples, std::ostream& out) {
  const PercentilePick p50 = TailPercentile(samples, 50.0);
  const PercentilePick p999 = TailPercentile(samples, 99.9);
  m->Set("latency_vt_p50", static_cast<double>(p50.value), "vtime");
  m->Set("latency_vt_p999", static_cast<double>(p999.value), "vtime");
  out << "latency samples: " << p999.n << " (p99.9 reported at p" << p999.pct << ", rank "
      << p999.rank << ")\n";
}

void SetSlowdown(Metrics* m, const std::vector<double>& ratios) {
  double worst = 0.0;
  for (double r : ratios) {
    worst = std::max(worst, r);
  }
  m->Set("sim_slowdown_geomean", harness::GeoMean(ratios), "x");
  m->Set("sim_slowdown_max", worst, "x");
}

// Per-layer metrics every workload reports; layers a workload bypasses read 0.
void SetCommonLayers(Metrics* m) {
  for (const char* k : {"harness.best_s", "rt.run_s", "rt.construct_s"}) {
    m->Set(k, 0, "s");
  }
  for (const char* k : {"rt.runs", "rt.commits", "rt.vol_ctx_switches", "clock.token_grants",
                        "clock.fast_forwards", "clock.overflows"}) {
    m->Set(k, 0, "count");
  }
  m->Set("clock.token_held_s", 0, "s");
  m->Set("conv.commit_s", 0, "s");
  m->Set("conv.gc_s", 0, "s");
  m->Set("conv.gc_share", 0, "fraction");
  for (const char* k :
       {"conv.pages_committed", "conv.pages_merged", "conv.cow_faults", "conv.pages_propagated"}) {
    m->Set(k, 0, "count");
  }
  m->Set("conv.sim_peak_mib", 0, "MiB");
  m->Set("sim.outside_token_s", 0, "s");
  m->Set("sim.threads_spawned", 0, "count");
  m->Set("sim.trace_events", 0, "count");
  m->Set("sim.host_ns_per_event", 0, "ns");
  for (std::string_view c : sim::kTimeCatNames) {
    m->Set("sim.vt_" + std::string(c), 0, "vtime");
  }
  for (const char* k : {"serve.loadgen_s", "serve.route_s", "serve.shard_busy_s",
                        "serve.shard_max_s"}) {
    m->Set(k, 0, "s");
  }
  m->Set("serve.shard_skew", 0, "x");
  m->Set("serve.pool_util", 0, "fraction");
  m->Set("serve.encode_s", 0, "s");
  m->Set("serve.recording_mib", 0, "MiB");
  m->Set("serve.requests", 0, "count");
  m->Set("tso.trace_events", 0, "count");
  m->Set("trace.overhead", 0, "x");
}

// Adds one run's work counters and simulated time totals to the per-layer set.
void AddRunCounters(Metrics* m, const rt::RunResult& r) {
  auto add = [&](const std::string& k, double v) { m->m[k].first += v; };
  add("rt.commits", static_cast<double>(r.commits));
  add("clock.token_grants", static_cast<double>(r.token_acquires));
  add("clock.fast_forwards", static_cast<double>(r.fast_forwards));
  add("clock.overflows", static_cast<double>(r.overflows));
  add("conv.pages_committed", static_cast<double>(r.pages_committed));
  add("conv.pages_merged", static_cast<double>(r.pages_merged));
  add("conv.cow_faults", static_cast<double>(r.cow_faults));
  add("conv.pages_propagated", static_cast<double>(r.pages_propagated));
  add("sim.threads_spawned", static_cast<double>(r.cat_by_thread.size()));
  add("sim.trace_events", static_cast<double>(r.trace_events));
  for (usize c = 0; c < sim::kNumTimeCats; ++c) {
    add("sim.vt_" + std::string(sim::kTimeCatNames[c]), static_cast<double>(r.cat_totals[c]));
  }
  m->m["conv.sim_peak_mib"].first =
      std::max(m->m["conv.sim_peak_mib"].first, static_cast<double>(r.peak_mem_bytes) / 1048576.0);
}

// ---- paper_sweep -----------------------------------------------------------

void CheckPaperPass(const Reference& ref, bool at_ref_seed, const PaperPass& first,
                    const PaperPass& p, const std::string& what, Verdict* v) {
  for (usize i = 0; i < p.best.size(); ++i) {
    const PaperResult& r = p.best[i];
    const PaperResult& f = first.best[i];
    std::string why;
    bool ok = CheckPaperRun(ref, at_ref_seed, r, &why);
    if (ok && at_ref_seed &&
        r.key.threads != ReferenceBestThreads(ref, r.key.program, r.key.backend)) {
      ok = false;
      why = r.key.program + "/" + r.key.backend + ": best thread count differs from reference";
    }
    if (ok && (r.key != f.key || r.run.vtime != f.run.vtime || r.run.checksum != f.run.checksum ||
               r.run.trace_digest != f.run.trace_digest)) {
      ok = false;
      why = r.key.program + "/" + r.key.backend + ": " + what + " differs from the first pass";
    }
    v->Check(ok, why);
  }
}

Outcome RunPaper(const Args& a, Setup* setup, std::ostream& out) {
  Outcome o;
  const Reference& ref = setup->ref;
  const bool at_ref_seed = a.seed == ref.seed;
  const rt::RuntimeConfig base = PaperConfig(a.seed);
  std::vector<PaperPass> passes;
  const u64 t0 = NowNs();
  // Peak RSS is the high-water mark through the first pass (set-up plus one
  // sweep or one serving of the log); later passes add allocator
  // fragmentation that varies with host thread timing.
  Usage after_first;
  do {
    passes.push_back(RunPaperPass(base));
    out << "pass " << passes.size() << ": " << Secs(passes.back().wall_ns) << " s\n";
    if (passes.size() == 1) {
      after_first = ReadUsage();
    }
    setup->Repeat(kSetupReps);
  } while (Secs(NowNs() - t0) < a.seconds);
  o.passes = static_cast<int>(passes.size());
  for (const PaperPass& p : passes) {
    CheckPaperPass(ref, at_ref_seed, passes[0], p, "pass", &o.verdict);
  }

  const PaperPass& p0 = passes[0];
  Metrics& e = o.e2e;
  const double wall = MedianOf<PaperPass>(passes, [](const PaperPass& p) { return Secs(p.wall_ns); });
  o.untraced_wall_ns = static_cast<u64>(wall * 1e9);
  e.Set("wall_s", wall, "s");
  e.Set("cpu_s", MedianOf<PaperPass>(passes, [](const PaperPass& p) { return Secs(p.cpu_ns); }),
        "s");
  e.Set("peak_rss_mib", static_cast<double>(after_first.max_rss_kib) / 1024.0, "MiB");
  e.Set("rps",
        MedianOf<PaperPass>(passes,
                            [](const PaperPass& p) {
                              return static_cast<double>(p.runs) / Secs(p.wall_ns);
                            }),
        "1/s");
  std::vector<u64> vtimes;
  std::map<std::string, std::map<std::string, u64>> best_vt;  // program -> backend -> vtime
  for (const PaperResult& r : p0.best) {
    vtimes.push_back(r.run.vtime);
    best_vt[r.key.program][r.key.backend] = r.run.vtime;
  }
  SetLatency(&e, vtimes, out);
  std::vector<double> ratios;
  for (const auto& [prog, by_backend] : best_vt) {
    ratios.push_back(harness::Slowdown(by_backend.at("cons-ic"), by_backend.at("pthreads")));
  }
  SetSlowdown(&e, ratios);

  if (a.trace == 1) {
    const Usage u0 = ReadUsage();
    TracedPaperPass tp = RunTracedPaperPass(base);
    const Usage u1 = ReadUsage();
    for (const PaperResult& r : tp.all) {
      std::string why;
      o.verdict.Check(CheckPaperRun(ref, at_ref_seed, r, &why), "traced: " + why);
    }
    CheckPaperPass(ref, at_ref_seed, p0, tp.pass, "traced pass", &o.verdict);
    o.traced_wall_ns = tp.pass.wall_ns;
    o.spans = std::move(tp.spans);

    Metrics& m = o.layers;
    SetCommonLayers(&m);
    const PaperTimes& t = tp.times;
    for (const rt::RunResult& r : tp.runs) {
      AddRunCounters(&m, r);
    }
    m.Set("harness.best_s",
          MedianOf<PaperPass>(passes, [](const PaperPass& p) { return Secs(p.best_call_ns); }),
          "s");
    m.Set("rt.run_s", Secs(t.run_ns), "s");
    m.Set("rt.construct_s", Secs(t.construct_ns), "s");
    m.Set("rt.runs", static_cast<double>(tp.runs.size()), "count");
    m.Set("rt.vol_ctx_switches", static_cast<double>(u1.vol_ctx_switches - u0.vol_ctx_switches),
          "count");
    m.Set("clock.token_held_s", Secs(t.token_held_ns), "s");
    m.Set("conv.commit_s", Secs(t.commit_ns), "s");
    m.Set("conv.gc_s", Secs(t.gc_ns), "s");
    m.Set("conv.gc_share", static_cast<double>(t.gc_ns) / static_cast<double>(tp.pass.wall_ns),
          "fraction");
    m.Set("sim.outside_token_s", Secs(t.run_ns - t.token_held_ns), "s");
    m.Set("sim.host_ns_per_event",
          static_cast<double>(t.run_ns) / std::max(1.0, m.m["sim.trace_events"].first), "ns");
  }
  return o;
}

// ---- serve_* ---------------------------------------------------------------------

struct ServeSummary {
  u64 wall_ns = 0;
  u64 cpu_ns = 0;
  u64 encode_ns = 0;
  u64 requests = 0;
  u64 digest = 0;
};

ServeSummary Summarize(const ServePass& p) {
  return ServeSummary{p.wall_ns, p.cpu_ns, p.encode_ns, p.result.requests,
                      p.result.response_digest};
}

using Routed = std::vector<std::vector<serve::Request>>;  // the log by shard

// Checks one pass's shards against the reference (at its seed) and the
// seed-independent invariants; weights are requests.
void CheckServePass(const Reference& ref, bool at_ref_seed, const std::string& wl,
                    const Routed& routed, const ServePass& p, const std::string& what, Verdict* v) {
  for (const serve::ShardResult& s : p.result.shards) {
    const std::vector<serve::Request>& log = routed[s.shard];
    const u64 n = std::max<u64>(log.size(), 1);
    const std::string name = what + " shard " + std::to_string(s.shard) + ": ";
    bool ok = s.requests == log.size() && s.responses.size() == log.size();
    u64 leaks = 0;
    for (u8 l : s.session_leaks) {
      leaks += l;
    }
    ok = ok && leaks == 0;
    if (ok && at_ref_seed) {
      const auto it = ref.shards.find({wl, s.shard});
      ok = it != ref.shards.end() && it->second.requests == s.requests &&
           it->second.response_digest == s.response_digest &&
           it->second.state_digest == s.state_digest;
      if (!ok) {
        v->Check(false, name + "digests differ from the reference", n);
        continue;
      }
    }
    if (!ok) {
      v->Check(false, name + "request count or session isolation broken", n);
      continue;
    }
    const u64 bad = std::min(CountKvViolations(log, s.responses), n);
    if (bad > 0) {
      v->Check(false, name + std::to_string(bad) + " responses break the KV invariants", bad);
    }
    v->Check(true, "", n - bad);
  }
}

Outcome RunServe(const Args& a, Workload w, Setup* setup, std::ostream& out) {
  Outcome o;
  const Reference& ref = setup->ref;
  const std::vector<serve::Request>& log = setup->log;
  const std::string wl = WorkloadName(w);
  const bool at_ref_seed = a.seed == ref.seed;
  const serve::ServeConfig cfg = ServeConfigFor(w, a.seed, rt::Backend::kConsequenceIC);
  if (at_ref_seed) {
    const auto it = ref.logs.find(wl);
    o.verdict.Check(it != ref.logs.end() && it->second.requests == log.size() &&
                        it->second.digest == LogDigest(log),
                    "request log differs from the reference");
  }

  // The checks need the log by shard. The server routes it itself, so this
  // routing stays out of the passes; it is timed for serve.route_s.
  const u64 r0 = NowNs();
  const Routed routed = serve::RouteLog(log, cfg.shards);
  const u64 route_ns = NowNs() - r0;

  // Check the first pass and keep what the metrics need, then drop it so
  // later passes run with one pass's memory, as a server would.
  ServePass first = RunServePass(cfg, log);
  out << "pass 1: " << Secs(first.wall_ns) << " s\n";
  CheckServePass(ref, at_ref_seed, wl, routed, first, "pass 1", &o.verdict);
  std::vector<u64> lat, vtimes;
  for (const serve::ShardResult& s : first.result.shards) {
    lat.insert(lat.end(), s.latencies.begin(), s.latencies.end());
    vtimes.push_back(s.run.vtime);
  }
  std::vector<ServeSummary> passes = {Summarize(first)};
  const u64 t0 = first.start_ns;
  first = ServePass{};
  const Usage after_first = ReadUsage();  // peak RSS as for paper_sweep
  setup->Repeat(kSetupReps);
  while (Secs(NowNs() - t0) < a.seconds) {
    passes.push_back(Summarize(RunServePass(cfg, log)));
    out << "pass " << passes.size() << ": " << Secs(passes.back().wall_ns) << " s\n";
    setup->Repeat(kSetupReps);
  }
  o.passes = static_cast<int>(passes.size());
  for (usize i = 1; i < passes.size(); ++i) {
    o.verdict.Check(passes[i].digest == passes[0].digest,
                    "pass " + std::to_string(i + 1) + " response digest differs from pass 1",
                    log.size());
  }

  // The pthreads baseline of the same log gives the cost of determinism.
  const serve::ServeResult base =
      serve::ShardServer(ServeConfigFor(w, a.seed, rt::Backend::kPthreads)).Serve(log);
  std::vector<double> ratios;
  for (usize s = 0; s < vtimes.size(); ++s) {
    ratios.push_back(harness::Slowdown(vtimes[s], base.shards[s].run.vtime));
  }

  Metrics& e = o.e2e;
  const double wall =
      MedianOf<ServeSummary>(passes, [](const ServeSummary& p) { return Secs(p.wall_ns); });
  o.untraced_wall_ns = static_cast<u64>(wall * 1e9);
  e.Set("wall_s", wall, "s");
  e.Set("cpu_s",
        MedianOf<ServeSummary>(passes, [](const ServeSummary& p) { return Secs(p.cpu_ns); }), "s");
  e.Set("peak_rss_mib", static_cast<double>(after_first.max_rss_kib) / 1024.0, "MiB");
  e.Set("rps",
        MedianOf<ServeSummary>(passes,
                               [](const ServeSummary& p) {
                                 return static_cast<double>(p.requests) / Secs(p.wall_ns);
                               }),
        "1/s");
  SetLatency(&e, lat, out);
  SetSlowdown(&e, ratios);

  if (a.trace == 1) {
    const Usage u0 = ReadUsage();
    const ServePass tp = RunServePass(cfg, log);
    const Usage u1 = ReadUsage();
    CheckServePass(ref, at_ref_seed, wl, routed, tp, "traced", &o.verdict);
    o.verdict.Check(tp.result.response_digest == passes[0].digest,
                    "traced pass response digest differs from the untraced pass", log.size());
    o.traced_wall_ns = tp.wall_ns;
    o.spans = ServeSpans(tp);

    Metrics& m = o.layers;
    SetCommonLayers(&m);
    u64 run_ns = 0, max_ns = 0, events = 0;
    for (const serve::ShardResult& s : tp.result.shards) {
      run_ns += s.run.host_wall_ns;
      max_ns = std::max(max_ns, s.run.host_wall_ns);
      events += s.trace.EventCount();
      AddRunCounters(&m, s.run);
    }
    const double shards = static_cast<double>(tp.result.shards.size());
    const double workers = std::max(1.0, std::min<double>(cfg.serve_threads, shards));
    m.Set("rt.run_s", Secs(run_ns), "s");
    m.Set("rt.runs", shards, "count");
    m.Set("rt.vol_ctx_switches", static_cast<double>(u1.vol_ctx_switches - u0.vol_ctx_switches),
          "count");
    m.Set("sim.host_ns_per_event",
          static_cast<double>(run_ns) / std::max(1.0, m.m["sim.trace_events"].first), "ns");
    m.Set("serve.route_s", Secs(route_ns), "s");
    m.Set("serve.shard_busy_s", Secs(run_ns), "s");
    m.Set("serve.shard_max_s", Secs(max_ns), "s");
    m.Set("serve.shard_skew", static_cast<double>(max_ns) * shards / static_cast<double>(run_ns),
          "x");
    m.Set("serve.pool_util",
          static_cast<double>(run_ns) / (static_cast<double>(tp.result.wall_ns) * workers),
          "fraction");
    m.Set("serve.encode_s",
          MedianOf<ServeSummary>(passes, [](const ServeSummary& p) { return Secs(p.encode_ns); }),
          "s");
    m.Set("serve.recording_mib", static_cast<double>(tp.recording_bytes) / 1048576.0, "MiB");
    m.Set("serve.requests", static_cast<double>(tp.result.requests), "count");
    m.Set("tso.trace_events", static_cast<double>(events), "count");
  }
  return o;
}

// ---- Reporting ---------------------------------------------------------------------

// Prints the traced pass's per-layer self times and checks that they sum to
// no more than the traced pass; returns false when they do not.
bool ReportLayers(Outcome* o, std::ostream& os) {
  const std::vector<LayerTime> layers = LayerSelfTimes(o->spans);
  u64 sum = 0;
  os << "traced pass: per-layer self time\n";
  for (const LayerTime& l : layers) {
    sum += l.self_ns;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-18s %10.4f s  %6.2f%%\n", l.layer.c_str(),
                  Secs(l.self_ns),
                  100.0 * static_cast<double>(l.self_ns) / static_cast<double>(o->traced_wall_ns));
    os << buf;
  }
  const double overhead =
      static_cast<double>(o->traced_wall_ns) / static_cast<double>(o->untraced_wall_ns);
  o->layers.Set("trace.overhead", overhead, "x");
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "  sum of self times %.4f s; traced wall_s %.4f s; untraced wall_s %.4f s; "
                "tracing overhead %.4fx\n",
                Secs(sum), Secs(o->traced_wall_ns), Secs(o->untraced_wall_ns), overhead);
  os << buf;
  return sum <= o->traced_wall_ns + 1000;  // 1 us of clock rounding
}

// The paper sweep's reference: every run at the reference seed, with the
// race-free programs cross-checked against their pthreads runs.
int Regenerate(const std::string& path) {
  Reference ref;
  ref.seed = kReferenceSeed;
  std::cerr << "regenerate: paper_sweep\n";
  const TracedPaperPass tp = RunTracedPaperPass(PaperConfig(kReferenceSeed));
  for (const PaperResult& r : tp.all) {
    ref.paper[r.key] = r.run;
  }
  int bad = 0;
  for (const PaperResult& r : tp.all) {
    std::string why;
    if (!CheckPaperRun(ref, true, r, &why)) {
      std::cerr << "cross-check failed: " << why << "\n";
      ++bad;
    }
  }
  for (Workload w : {Workload::kServeSharded, Workload::kServeSingle}) {
    const std::string wl = WorkloadName(w);
    std::cerr << "regenerate: " << wl << "\n";
    const std::vector<serve::Request> log = serve::GenerateLoad(ServeLoad(w, kReferenceSeed));
    ref.logs[wl] = LogRef{log.size(), LogDigest(log)};
    const serve::ServeConfig cfg = ServeConfigFor(w, kReferenceSeed, rt::Backend::kConsequenceIC);
    const ServePass p = RunServePass(cfg, log);
    for (const serve::ShardResult& s : p.result.shards) {
      ref.shards[{wl, s.shard}] = ShardRef{s.requests, s.response_digest, s.state_digest};
    }
    Verdict v;
    CheckServePass(ref, true, wl, serve::RouteLog(log, cfg.shards), p, wl, &v);
    for (const std::string& err : v.errors) {
      std::cerr << "invariant failed: " << err << "\n";
    }
    bad += v.failed > 0 ? 1 : 0;
  }
  if (bad > 0) {
    std::cerr << "regenerate: refusing to write a reference that fails its own checks\n";
    return 1;
  }
  std::ofstream out(path);
  WriteReference(out, ref);
  return out ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  RefuseEnvKnobs();
  if (!a.regenerate.empty()) {
    return Regenerate(a.regenerate);
  }
  Workload w{};
  if (!ParseWorkload(a.workload, &w)) {
    Die("unknown workload " + a.workload);
  }
  const bool serving = w != Workload::kPaperSweep;

  Setup setup;
  setup.reference_path = a.reference;
  setup.serving = serving;
  if (serving) {
    setup.load = ServeLoad(w, a.seed);
  }
  setup.Repeat(kSetupReps);
  const Reference& ref = setup.ref;

  std::ostream& os = std::cout;
  os << "perfbench " << a.workload << " seed=" << a.seed << " seconds=" << a.seconds
     << " trace=" << a.trace << "\n";
  os << "env: nproc=" << std::thread::hardware_concurrency()
     << " simd=" << simd::LevelName(simd::ActiveLevel()) << " build=" << PERFBENCH_BUILD_TYPE
     << " reference_seed=" << ref.seed << (a.seed == ref.seed ? " (exact reference)" : " (invariants)")
     << "\n";

  Outcome o = serving ? RunServe(a, w, &setup, os) : RunPaper(a, &setup, os);
  o.e2e.Set("setup_s", Median(setup.setup_s), "s");
  os << "set-up repetitions: " << setup.setup_s.size() << "\n";
  if (a.trace == 1) {
    if (serving) {
      o.layers.Set("serve.loadgen_s", Median(setup.loadgen_s), "s");
    }
    o.verdict.Check(ReportLayers(&o, os), "per-layer self times exceed the traced wall_s");
    const std::string path = a.out_dir + "/trace_" + a.workload + "_seed" + std::to_string(a.seed) +
                             ".json";
    std::ofstream tf(path);
    WriteChromeTrace(tf, o.spans);
    os << "chrome trace: " << path << (tf ? "" : " (write FAILED)") << "\n";
  }

  os << "passes: " << o.passes << "\n";
  o.e2e.Print(os, "end-to-end:");
  if (a.trace == 1) {
    o.layers.Print(os, "per-layer:");
  }
  os << "error_rate: " << o.verdict.ErrorRate() << " (" << o.verdict.failed << " of "
     << o.verdict.attempted << ")\n";
  for (const std::string& err : o.verdict.errors) {
    os << "  FAILED " << err << "\n";
  }

  // End-to-end metrics in BENCHMARK.json order; the per-layer set as built.
  Metrics shown;
  if (a.trace == 0) {
    for (const char* k : {"setup_s", "wall_s", "cpu_s", "peak_rss_mib", "rps", "latency_vt_p50",
                          "latency_vt_p999", "sim_slowdown_geomean", "sim_slowdown_max"}) {
      shown.Set(k, o.e2e.m.at(k).first, o.e2e.m.at(k).second);
    }
  } else {
    shown = o.layers;
  }
  const bool correct = o.verdict.failed == 0;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
     << o.verdict.attempted << ", \"failed\": " << o.verdict.failed
     << ", \"metrics\": " << shown.Json() << "}" << std::endl;
  return correct ? 0 : 1;
}

#include "perfbench/src/bench_lib.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "src/util/hash.h"
#include "src/util/json.h"

namespace perfbench {

// ---- Percentiles -------------------------------------------------------------

PercentilePick TailPercentile(std::vector<u64> xs, double p) {
  PercentilePick out;
  out.n = xs.size();
  if (xs.empty()) {
    return out;
  }
  std::sort(xs.begin(), xs.end());
  const usize n = xs.size();
  // The epsilon keeps float error in p * n from bumping an exact rank up.
  usize rank = static_cast<usize>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<usize>(rank, 1, n);
  const usize max_rank = n > kTailSamples ? n - kTailSamples : 1;
  if (rank > max_rank) {
    rank = max_rank;
    out.pct = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  } else {
    out.pct = p;
  }
  out.rank = rank;
  out.value = xs[rank - 1];
  return out;
}

double Median(std::vector<double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const usize n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

// ---- Spans ---------------------------------------------------------------------

namespace {

using Interval = std::pair<u64, u64>;  // [first, second)

// Sorts and merges overlapping intervals.
std::vector<Interval> Union(std::vector<Interval> ivs) {
  std::sort(ivs.begin(), ivs.end());
  std::vector<Interval> out;
  for (const Interval& iv : ivs) {
    if (iv.second <= iv.first) {
      continue;
    }
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

u64 Measure(const std::vector<Interval>& merged) {
  u64 total = 0;
  for (const Interval& iv : merged) {
    total += iv.second - iv.first;
  }
  return total;
}

// The parts of `span` not covered by `covered` (merged, sorted).
std::vector<Interval> Subtract(Interval span, const std::vector<Interval>& covered) {
  std::vector<Interval> out;
  u64 cursor = span.first;
  for (const Interval& c : covered) {
    const u64 lo = std::max(c.first, span.first);
    const u64 hi = std::min(c.second, span.second);
    if (lo >= hi) {
      continue;
    }
    if (lo > cursor) {
      out.emplace_back(cursor, lo);
    }
    cursor = std::max(cursor, hi);
  }
  if (cursor < span.second) {
    out.emplace_back(cursor, span.second);
  }
  return out;
}

std::vector<std::vector<Interval>> SelfIntervals(const std::vector<Span>& spans) {
  std::vector<std::vector<Interval>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<usize>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::vector<Interval>> out(spans.size());
  for (usize i = 0; i < spans.size(); ++i) {
    out[i] = Subtract({spans[i].start_ns, spans[i].end_ns}, Union(std::move(kids[i])));
  }
  return out;
}

}  // namespace

int AddSpan(std::vector<Span>* spans, Span s) {
  spans->push_back(std::move(s));
  return static_cast<int>(spans->size() - 1);
}

std::vector<u64> SelfTimes(const std::vector<Span>& spans) {
  const std::vector<std::vector<Interval>> self = SelfIntervals(spans);
  std::vector<u64> out(spans.size());
  for (usize i = 0; i < spans.size(); ++i) {
    out[i] = Measure(self[i]);
  }
  return out;
}

std::vector<LayerTime> LayerSelfTimes(const std::vector<Span>& spans) {
  const std::vector<u64> self = SelfTimes(spans);
  std::vector<LayerTime> out;
  auto add = [&](const std::string& layer, u64 ns) {
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const LayerTime& l) { return l.layer == layer; });
    if (it == out.end()) {
      out.push_back(LayerTime{layer, 0});
      it = out.end() - 1;
    }
    it->self_ns += ns;
  };
  for (usize i = 0; i < spans.size(); ++i) {
    u64 left = self[i];
    for (const auto& [layer, ns] : spans[i].split) {
      const u64 part = std::min(ns, left);
      left -= part;
      add(layer, part);
    }
    add(spans[i].layer, left);
  }
  return out;
}

void WriteChromeTrace(std::ostream& os, const std::vector<Span>& spans) {
  u64 t0 = ~0ULL;
  for (const Span& s : spans) {
    t0 = std::min(t0, s.start_ns);
  }
  char buf[64];
  auto us = [&](u64 ns) {
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e3);
    return std::string(buf);
  };
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":" << csq::util::JsonQuote(s.name)
       << ",\"cat\":" << csq::util::JsonQuote(s.layer) << ",\"ts\":" << us(s.start_ns - t0)
       << ",\"dur\":" << us(s.Duration()) << ",\"args\":{";
    bool first_arg = true;
    auto arg = [&](const std::string& k, double v) {
      os << (first_arg ? "" : ",") << csq::util::JsonQuote(k) << ":";
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      os << buf;
      first_arg = false;
    };
    for (const auto& [k, v] : s.split) {
      arg(k + "_ns", static_cast<double>(v));
    }
    for (const auto& [k, v] : s.args) {
      arg(k, v);
    }
    os << "}}";
  }
  os << "\n]}\n";
}

// ---- Reference ------------------------------------------------------------------

namespace {

std::string Hex(u64 v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

bool ParseHex(const std::string& s, u64* out) {
  if (s.empty() || s.size() > 16) {
    return false;
  }
  u64 v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<u64>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<u64>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

}  // namespace

bool ParseReference(std::istream& is, Reference* ref, std::string* err) {
  *ref = Reference{};
  std::string line;
  int lineno = 0;
  bool have_seed = false;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    bool ok = false;
    if (kind == "seed") {
      ok = static_cast<bool>(ls >> ref->seed);
      have_seed = ok;
    } else if (kind == "paper") {
      PaperKey k;
      std::string vt, ck, td;
      PaperRun r;
      ok = static_cast<bool>(ls >> k.program >> k.backend >> k.threads >> vt >> ck >> td) &&
           ParseHex(ck, &r.checksum) && ParseHex(td, &r.trace_digest);
      if (ok) {
        std::istringstream vs(vt);
        ok = static_cast<bool>(vs >> r.vtime) && ref->paper.emplace(k, r).second;
      }
    } else if (kind == "log") {
      std::string wl, dg;
      LogRef l;
      ok = static_cast<bool>(ls >> wl >> l.requests >> dg) && ParseHex(dg, &l.digest) &&
           ref->logs.emplace(wl, l).second;
    } else if (kind == "shard") {
      std::string wl, rd, sd;
      u32 shard = 0;
      ShardRef s;
      ok = static_cast<bool>(ls >> wl >> shard >> s.requests >> rd >> sd) &&
           ParseHex(rd, &s.response_digest) && ParseHex(sd, &s.state_digest) &&
           ref->shards.emplace(std::make_pair(wl, shard), s).second;
    }
    std::string extra;
    if (!ok || (ls >> extra)) {
      *err = "line " + std::to_string(lineno) + ": malformed or duplicate: " + line;
      return false;
    }
  }
  if (!have_seed) {
    *err = "no seed line";
    return false;
  }
  return true;
}

void WriteReference(std::ostream& os, const Reference& ref) {
  os << "# perfbench reference outputs at the reference seed.\n"
     << "# Regenerate with: python3 perfbench/run.py --regenerate\n"
     << "seed " << ref.seed << "\n";
  for (const auto& [k, r] : ref.paper) {
    os << "paper " << k.program << " " << k.backend << " " << k.threads << " " << r.vtime << " "
       << Hex(r.checksum) << " " << Hex(r.trace_digest) << "\n";
  }
  for (const auto& [wl, l] : ref.logs) {
    os << "log " << wl << " " << l.requests << " " << Hex(l.digest) << "\n";
  }
  for (const auto& [k, s] : ref.shards) {
    os << "shard " << k.first << " " << k.second << " " << s.requests << " "
       << Hex(s.response_digest) << " " << Hex(s.state_digest) << "\n";
  }
}

// ---- Checks ---------------------------------------------------------------------------

void Verdict::Check(bool ok, const std::string& what, u64 weight) {
  attempted += weight;
  if (!ok) {
    failed += weight;
    if (errors.size() < 20) {
      errors.push_back(what);
    }
  }
}

bool CheckPaperRun(const Reference& ref, bool at_ref_seed, const PaperResult& r,
                   std::string* why) {
  const std::string name =
      r.key.program + "/" + r.key.backend + "@" + std::to_string(r.key.threads) + ": ";
  const auto it = ref.paper.find(r.key);
  if (it == ref.paper.end()) {
    *why = name + "no reference entry";
    return false;
  }
  const PaperRun& e = it->second;
  if (at_ref_seed && (r.run.vtime != e.vtime || r.run.checksum != e.checksum ||
                      r.run.trace_digest != e.trace_digest)) {
    *why = name + "differs from the reference (vtime " + std::to_string(r.run.vtime) + " vs " +
           std::to_string(e.vtime) + ", checksum " + Hex(r.run.checksum) + " vs " +
           Hex(e.checksum) + ", trace " + Hex(r.run.trace_digest) + " vs " +
           Hex(e.trace_digest) + ")";
    return false;
  }
  if (r.deterministic && r.run.checksum != e.checksum) {
    *why = name + "checksum " + Hex(r.run.checksum) + " differs from the reference " +
           Hex(e.checksum);
    return false;
  }
  if (!r.racy) {
    const auto pt = ref.paper.find(PaperKey{r.key.program, "pthreads", r.key.threads});
    if (pt == ref.paper.end() || pt->second.checksum != r.run.checksum) {
      *why = name + "checksum differs from the race-free program's pthreads run";
      return false;
    }
  }
  return true;
}

u32 ReferenceBestThreads(const Reference& ref, const std::string& program,
                         const std::string& backend) {
  u64 best = ~0ULL;
  u32 at = 0;
  for (auto it = ref.paper.lower_bound(PaperKey{program, backend, 0});
       it != ref.paper.end() && it->first.program == program && it->first.backend == backend;
       ++it) {
    if (it->second.vtime < best) {
      best = it->second.vtime;
      at = it->first.threads;
    }
  }
  return at;
}

u64 CountKvViolations(const std::vector<csq::serve::Request>& log,
                      const std::vector<u64>& responses) {
  if (log.size() != responses.size()) {
    return std::max<u64>(log.size(), 1);
  }
  struct KeyState {
    std::unordered_set<u64> payloads;
    std::unordered_set<u64> returned;  // previous values handed out by puts
    bool zero_seen = false;
  };
  auto pack = [](const csq::serve::Request& r) { return (r.tenant << 40) ^ r.key; };
  std::unordered_map<u64, KeyState> keys;
  for (const csq::serve::Request& r : log) {
    if (r.op == csq::serve::Op::kPut) {
      keys[pack(r)].payloads.insert(r.value);
    }
  }
  u64 bad = 0;
  for (usize i = 0; i < log.size(); ++i) {
    const csq::serve::Request& r = log[i];
    const u64 resp = responses[i];
    if (r.op == csq::serve::Op::kScan) {
      continue;
    }
    auto it = keys.find(pack(r));
    if (r.op == csq::serve::Op::kGet) {
      bad += (resp != 0 && (it == keys.end() || it->second.payloads.count(resp) == 0)) ? 1 : 0;
      continue;
    }
    KeyState& ks = it->second;
    if (resp == 0) {
      bad += ks.zero_seen ? 1 : 0;
      ks.zero_seen = true;
    } else {
      const bool valid = resp != r.value && ks.payloads.count(resp) == 1;
      bad += (!valid || !ks.returned.insert(resp).second) ? 1 : 0;
    }
  }
  // Every key that saw a put must have had exactly one fresh insert.
  for (const auto& [k, ks] : keys) {
    bad += ks.zero_seen ? 0 : 1;
  }
  return bad;
}

u64 LogDigest(const std::vector<csq::serve::Request>& log) {
  csq::Fnv1a h;
  for (const csq::serve::Request& r : log) {
    h.Mix(r.tenant);
    h.Mix(r.session);
    h.Mix(static_cast<u64>(r.op));
    h.Mix(r.key);
    h.Mix(r.value);
  }
  return h.Digest();
}

}  // namespace perfbench

// Unit tests of the benchmark's own logic.
#include <gtest/gtest.h>

#include <algorithm>

#include <sstream>

#include "perfbench/src/bench_lib.h"
#include "perfbench/src/runner.h"
#include "src/serve/loadgen.h"

namespace perfbench {
namespace {

std::vector<u64> OneTo(u64 n) {
  std::vector<u64> xs;
  for (u64 i = n; i >= 1; --i) {  // unsorted on purpose
    xs.push_back(i);
  }
  return xs;
}

TEST(TailPercentile, NearestRank) {
  const PercentilePick p50 = TailPercentile(OneTo(100), 50.0);
  EXPECT_EQ(p50.value, 50u);
  EXPECT_EQ(p50.rank, 50u);
  EXPECT_DOUBLE_EQ(p50.pct, 50.0);
  EXPECT_EQ(TailPercentile(OneTo(100), 50.5).value, 51u);  // ceil(50.5)
  EXPECT_EQ(TailPercentile(OneTo(7), 0.0).value, 1u);
}

TEST(TailPercentile, KeepsTenSamplesBeyond) {
  // 20000 samples: rank 19980 leaves 20 beyond, so p99.9 stands.
  const PercentilePick big = TailPercentile(OneTo(20000), 99.9);
  EXPECT_EQ(big.value, 19980u);
  EXPECT_DOUBLE_EQ(big.pct, 99.9);
  // 1000 samples: p99.9 would leave 1 beyond; clamp to rank 990 (p99).
  const PercentilePick small = TailPercentile(OneTo(1000), 99.9);
  EXPECT_EQ(small.rank, 990u);
  EXPECT_EQ(small.value, 990u);
  EXPECT_DOUBLE_EQ(small.pct, 99.0);
  EXPECT_EQ(1000u - small.rank, kTailSamples);
  // Too few samples for any tail: the smallest sample.
  EXPECT_EQ(TailPercentile(OneTo(8), 99.9).rank, 1u);
  EXPECT_EQ(TailPercentile({}, 50.0).n, 0u);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

const LayerTime& Find(const std::vector<LayerTime>& ls, const std::string& name) {
  for (const LayerTime& l : ls) {
    if (l.layer == name) {
      return l;
    }
  }
  static const LayerTime kNone{};
  ADD_FAILURE() << "no layer " << name;
  return kNone;
}

TEST(Spans, SelfTimeSubtractsChildCoverage) {
  std::vector<Span> s;
  const int root = AddSpan(&s, Span{"pass", "pass", -1, 0, 100, {}, {}});
  const int a = AddSpan(&s, Span{"a", "a", root, 10, 40, {}, {}});
  AddSpan(&s, Span{"a1", "b", a, 15, 25, {}, {}});
  AddSpan(&s, Span{"a2", "b", a, 30, 35, {}, {}});
  AddSpan(&s, Span{"s", "shard", root, 50, 90, {}, {}});
  // A span whose self time is split among unplaced sub-layers.
  AddSpan(&s, Span{"run", "rt", root, 90, 100, {{"x", 3}, {"y", 4}}, {}});

  const std::vector<u64> self = SelfTimes(s);
  ASSERT_EQ(self.size(), 6u);
  EXPECT_EQ(self[0], 20u);  // 100 - |[10,40) u [50,90) u [90,100)|
  EXPECT_EQ(self[1], 15u);  // 30 - 10 - 5
  EXPECT_EQ(self[2], 10u);
  EXPECT_EQ(self[3], 5u);
  EXPECT_EQ(self[4], 40u);
  EXPECT_EQ(self[5], 10u);

  const std::vector<LayerTime> ls = LayerSelfTimes(s);
  EXPECT_EQ(Find(ls, "pass").self_ns, 20u);
  EXPECT_EQ(Find(ls, "a").self_ns, 15u);
  EXPECT_EQ(Find(ls, "b").self_ns, 15u);  // both spans of the layer
  EXPECT_EQ(Find(ls, "shard").self_ns, 40u);
  EXPECT_EQ(Find(ls, "x").self_ns, 3u);
  EXPECT_EQ(Find(ls, "y").self_ns, 4u);
  EXPECT_EQ(Find(ls, "rt").self_ns, 3u);
  u64 sum = 0;
  for (const LayerTime& l : ls) {
    sum += l.self_ns;
  }
  EXPECT_EQ(sum, 100u);  // the layers tile the root exactly
}

TEST(Spans, SplitLargerThanSelfTimeIsClamped) {
  std::vector<Span> s;
  AddSpan(&s, Span{"run", "rt", -1, 0, 10, {{"x", 8}, {"y", 8}}, {}});
  const std::vector<LayerTime> ls = LayerSelfTimes(s);
  EXPECT_EQ(Find(ls, "x").self_ns, 8u);
  EXPECT_EQ(Find(ls, "y").self_ns, 2u);
  EXPECT_EQ(Find(ls, "rt").self_ns, 0u);
}

TEST(Spans, ChildrenOutsideTheParentAreClipped) {
  std::vector<Span> s;
  const int root = AddSpan(&s, Span{"pass", "pass", -1, 10, 20, {}, {}});
  AddSpan(&s, Span{"early", "c", root, 0, 15, {}, {}});
  EXPECT_EQ(SelfTimes(s)[0], 5u);
}

TEST(Spans, ChromeTraceHasOneEventPerSpan) {
  std::vector<Span> s;
  const int root = AddSpan(&s, Span{"pass", "pass", -1, 1000, 5000, {}, {}});
  AddSpan(&s, Span{"run \"q\"", "rt", root, 2000, 3000, {{"conv.commit", 7}}, {{"vtime", 42}}});
  std::ostringstream os;
  WriteChromeTrace(os, s);
  const std::string j = os.str();
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"ts\":1.000,\"dur\":1.000"), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"run \\\"q\\\"\""), std::string::npos);
  EXPECT_NE(j.find("\"conv.commit_ns\":7"), std::string::npos);
  EXPECT_EQ(std::count(j.begin(), j.end(), '\n'), 4);  // header, 2 events, footer
}

Reference TwoRunReference() {
  Reference ref;
  ref.seed = kReferenceSeed;
  ref.paper[PaperKey{"histogram", "pthreads", 4}] = PaperRun{1000, 0xabc, 0x1};
  ref.paper[PaperKey{"histogram", "cons-ic", 4}] = PaperRun{2000, 0xabc, 0x2};
  ref.logs["serve_single"] = LogRef{10, 0x77};
  ref.shards[{"serve_single", 0}] = ShardRef{10, 0x5, 0x6};
  return ref;
}

double ErrorRate(const Reference& ref, bool at_ref_seed) {
  Verdict v;
  for (const auto& [key, run] : TwoRunReference().paper) {
    PaperResult r;
    r.key = key;
    r.deterministic = key.backend != "pthreads";
    r.run = run;
    std::string why;
    v.Check(CheckPaperRun(ref, at_ref_seed, r, &why), why);
  }
  return v.ErrorRate();
}

TEST(Reference, RoundTrips) {
  std::ostringstream os;
  WriteReference(os, TwoRunReference());
  std::istringstream is(os.str());
  Reference back;
  std::string err;
  ASSERT_TRUE(ParseReference(is, &back, &err)) << err;
  EXPECT_EQ(back.seed, kReferenceSeed);
  EXPECT_EQ(back.paper.size(), 2u);
  EXPECT_EQ(back.shards.at({"serve_single", 0}).state_digest, 0x6u);
  EXPECT_EQ(ErrorRate(back, true), 0.0);
  EXPECT_EQ(ReferenceBestThreads(back, "histogram", "cons-ic"), 4u);
}

TEST(Reference, RejectsMalformedLines) {
  for (const char* text : {"seed 1\npaper histogram pthreads 4 10 zz 00\n",
                           "seed 1\nshard serve_single 0 10 05\n", "paper x y 2 1 0 0\n",
                           "seed 1\nbogus\n"}) {
    std::istringstream is(text);
    Reference ref;
    std::string err;
    EXPECT_FALSE(ParseReference(is, &ref, &err)) << text;
  }
}

TEST(Reference, CorruptedEntryRaisesErrorRate) {
  std::ostringstream os;
  WriteReference(os, TwoRunReference());
  std::string text = os.str();
  const std::string good = "paper histogram cons-ic 4 2000 0000000000000abc";
  const usize at = text.find(good);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, good.size(), "paper histogram cons-ic 4 2000 0000000000000abd");
  std::istringstream is(text);
  Reference bad;
  std::string err;
  ASSERT_TRUE(ParseReference(is, &bad, &err)) << err;
  // The cons-ic run now mismatches its entry, at the reference seed and at
  // any other seed (deterministic checksums are seed-independent).
  EXPECT_DOUBLE_EQ(ErrorRate(bad, true), 0.5);
  EXPECT_DOUBLE_EQ(ErrorRate(bad, false), 0.5);
}

TEST(Reference, RaceFreeChecksumsCrossCheckPthreads) {
  Reference ref = TwoRunReference();
  ref.paper[PaperKey{"histogram", "pthreads", 4}].checksum = 0xdef;
  PaperResult r;
  r.key = PaperKey{"histogram", "cons-ic", 4};
  r.run = ref.paper[r.key];
  std::string why;
  EXPECT_FALSE(CheckPaperRun(ref, false, r, &why));
  r.racy = true;  // racy programs may legitimately differ from pthreads
  EXPECT_TRUE(CheckPaperRun(ref, false, r, &why)) << why;
}

csq::serve::Request Put(u64 key, u64 value) {
  return csq::serve::Request{1, 1, csq::serve::Op::kPut, key, value};
}
csq::serve::Request Get(u64 key) {
  return csq::serve::Request{1, 1, csq::serve::Op::kGet, key, 0};
}

TEST(KvInvariants, AcceptsAChainAndFlagsPhantoms) {
  const std::vector<csq::serve::Request> log = {Put(7, 3), Get(7), Put(7, 5), Put(7, 9),
                                                Get(8)};
  EXPECT_EQ(CountKvViolations(log, {0, 3, 3, 5, 0}), 0u);
  EXPECT_EQ(CountKvViolations(log, {0, 4, 3, 5, 0}), 1u);  // get of a value never put
  EXPECT_EQ(CountKvViolations(log, {0, 3, 3, 3, 0}), 1u);  // one previous value twice
  EXPECT_EQ(CountKvViolations(log, {0, 3, 0, 5, 0}), 1u);  // two fresh inserts
  EXPECT_EQ(CountKvViolations(log, {0, 3, 3, 9, 0}), 1u);  // a put returning itself
  EXPECT_EQ(CountKvViolations(log, {0, 3}), log.size());   // lost responses
}

TEST(Seeds, SeedChangesTheServeLog) {
  const u64 a = LogDigest(csq::serve::GenerateLoad(ServeLoad(Workload::kServeSingle, 1)));
  const u64 a2 = LogDigest(csq::serve::GenerateLoad(ServeLoad(Workload::kServeSingle, 1)));
  const u64 b = LogDigest(csq::serve::GenerateLoad(ServeLoad(Workload::kServeSingle, 2)));
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_NE(LogDigest(csq::serve::GenerateLoad(ServeLoad(Workload::kServeSharded, 1))), a);
}

TEST(Seeds, SeedDrivesPaperJitterOnly) {
  const csq::rt::RuntimeConfig c1 = PaperConfig(1);
  const csq::rt::RuntimeConfig c2 = PaperConfig(2);
  EXPECT_NE(c1.costs.jitter_seed, c2.costs.jitter_seed);
  EXPECT_EQ(c1.host_workers, 1u);
  EXPECT_FALSE(c1.race.enabled);
  EXPECT_EQ(c1.observer, nullptr);
}

}  // namespace
}  // namespace perfbench

// Self-test of the benchmark's own machinery: trace determinism, the
// percentile helper's support rule, failed_frac accounting, and the
// reference band against brute force. Prints one line per failed check;
// exits 0 when all pass.

#include <cstdio>
#include <vector>

#include "common/point_set.h"
#include "optrace.h"
#include "reference.h"
#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

void TraceDeterminism() {
  using namespace zskybench;
  Expect(ReadTraceHash(7, 4096) == ReadTraceHash(7, 4096),
         "same seed gives the same read-trace hash");
  Expect(ReadTraceHash(7, 4096) != ReadTraceHash(8, 4096),
         "different seeds give different read-trace hashes");
  Expect(WriteTraceHash(7, 4096) == WriteTraceHash(7, 4096),
         "same seed gives the same write-trace hash");
  Expect(WriteTraceHash(7, 4096) != WriteTraceHash(8, 4096),
         "different seeds give different write-trace hashes");

  // Stratified mixes: every block holds the exact kind counts.
  size_t boxes = 0, deletes = 0;
  for (uint64_t i = 0; i < 20 * 50; ++i) {
    boxes += ReadTraceOp(3, i).kind == ReadKind::kBox;
    deletes += WriteTraceOp(3, i).kind == WriteKind::kDelete;
  }
  Expect(boxes == 50, "serve-write reader mix is 95% default : 5% box");
  Expect(deletes == 200, "serve-write writer mix is 4 inserts : 1 delete");

  const ServeShapes a = MakeServeShapes(5);
  const ServeShapes b = MakeServeShapes(5);
  Expect(a.boxes.size() == kBoxPlacements, "box placement count");
  Expect(a.boxes[3].box_lo == b.boxes[3].box_lo,
         "shapes are a function of the seed");
}

void Percentiles() {
  using namespace zskybench;
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  auto p90 = SupportedPercentile(v, 0.9);
  Expect(p90.has_value() && *p90 == 90.0, "p90 of 1..100 is 90");
  v.pop_back();
  Expect(!SupportedPercentile(v, 0.9).has_value(),
         "p90 of 99 samples has only 9 beyond it: unsupported");
  std::vector<double> twenty(20, 1.0);
  Expect(SupportedPercentile(twenty, 0.5).has_value(),
         "p50 of 20 samples is supported");
  twenty.pop_back();
  Expect(!SupportedPercentile(twenty, 0.5).has_value(),
         "p50 of 19 samples is unsupported");
  Expect(Median({3, 1, 2}) == 2.0 && Median({4, 1, 2, 3}) == 2.5, "median");
  // Two whole ops and one half inside a 1 s window: 2.5 ops/s.
  Expect(WindowRate({{0, 400}, {400, 800}, {800, 1200}, {1300, 1500}},
                    1000) == 2.5,
         "window rate counts the straddling op's inside share");
  auto tail = HighestSupportedTail(std::vector<double>(1000, 2.0));
  Expect(tail.has_value() && tail->p == 0.99, "1000 samples support p99");
  Expect(!HighestSupportedTail(std::vector<double>(30, 2.0)).has_value(),
         "30 samples support no tail above p75");
}

void FailedFrac() {
  zskybench::Tally t;
  Expect(t.failed_frac() == 0.0, "empty tally reads 0");
  for (int i = 0; i < 8; ++i) t.Record(i != 3);
  Expect(t.attempted == 8 && t.failed == 1, "record counts failures");
  t.FailRecorded();
  Expect(t.failed == 2 && t.failed_frac() == 0.25, "deferred mismatch");
  for (int i = 0; i < 10; ++i) t.FailRecorded();
  Expect(t.failed == t.attempted, "failed never exceeds attempted");
  zskybench::Tally u;
  u.Record(true);
  u.Add(t);
  Expect(u.attempted == 9 && u.failed == 8, "tallies add");
}

void ReferenceBand() {
  zsky::PointSet ps(3);
  uint64_t x = 1;
  for (int i = 0; i < 600; ++i) {
    std::vector<zsky::Coord> p(3);
    for (auto& c : p) c = (x = zskybench::Mix64(x)) % 40;
    ps.Append(p);
  }
  for (uint32_t k : {1u, 2u, 3u}) {
    std::vector<uint32_t> brute;
    for (size_t i = 0; i < ps.size(); ++i) {
      uint32_t dominators = 0;
      for (size_t j = 0; j < ps.size(); ++j) {
        bool le = true, lt = false;
        for (int d = 0; d < 3; ++d) {
          le &= ps[j][d] <= ps[i][d];
          lt |= ps[j][d] < ps[i][d];
        }
        dominators += le && lt;
      }
      if (dominators < k) brute.push_back(static_cast<uint32_t>(i));
    }
    Expect(zskybench::ReferenceBand(ps, k, 3) == brute,
           "reference band matches brute force");
  }
}

}  // namespace

int main() {
  TraceDeterminism();
  Percentiles();
  FailedFrac();
  ReferenceBand();
  std::printf("zskybench selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

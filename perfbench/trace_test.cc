// Self-time arithmetic of the span recorder: nested children, children that
// overlap each other, children that stick out of their parent, grandchildren
// (which never count against the grandparent), and spans recorded live.
// Exits nonzero on the first failed check.

#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

perfbench::Span MakeSpan(int64_t id, int64_t parent, double start,
                         double end) {
  perfbench::Span s;
  s.name = "s" + std::to_string(id);
  s.id = id;
  s.parent = parent;
  s.start_us = start;
  s.end_us = end;
  return s;
}

void TestCoveredLength() {
  using perfbench::CoveredLength;
  Expect(Near(CoveredLength({0, 100}, {}), 0.0), "empty cover is 0");
  Expect(Near(CoveredLength({0, 100}, {{10, 20}, {30, 50}}), 30.0),
         "disjoint intervals add");
  Expect(Near(CoveredLength({0, 100}, {{10, 40}, {30, 50}}), 40.0),
         "overlapping intervals count once");
  Expect(Near(CoveredLength({0, 100}, {{10, 60}, {20, 30}}), 50.0),
         "contained interval counts once");
  Expect(Near(CoveredLength({0, 100}, {{-20, 10}, {90, 130}}), 20.0),
         "intervals clip to the window");
  Expect(Near(CoveredLength({0, 100}, {{110, 130}}), 0.0),
         "interval outside the window covers nothing");
  Expect(Near(CoveredLength({0, 100}, {{10, 20}, {20, 30}}), 20.0),
         "touching intervals add");
}

void TestSelfTime() {
  using perfbench::SelfTime;
  // root [0,100) has children a [10,40) and b [30,50) (overlapping) and
  // c [90,120) (sticks out); a has grandchild g [15,35).
  const std::vector<perfbench::Span> spans = {
      MakeSpan(0, -1, 0, 100), MakeSpan(1, 0, 10, 40),
      MakeSpan(2, 0, 30, 50),  MakeSpan(3, 0, 90, 120),
      MakeSpan(4, 1, 15, 35),
  };
  // Children cover [10,50) + [90,100) = 50 of root's 100.
  Expect(Near(SelfTime(spans[0], spans), 50.0), "root self time");
  // a [10,40) minus grandchild [15,35) = 10.
  Expect(Near(SelfTime(spans[1], spans), 10.0), "nested self time");
  Expect(Near(SelfTime(spans[2], spans), 20.0), "leaf self time");
  Expect(Near(SelfTime(spans[4], spans), 20.0), "grandchild self time");
  // A parent fully covered by its children has no self time.
  const std::vector<perfbench::Span> covered = {
      MakeSpan(0, -1, 0, 10), MakeSpan(1, 0, 0, 6), MakeSpan(2, 0, 4, 10)};
  Expect(Near(SelfTime(covered[0], covered), 0.0), "fully covered parent");
}

void TestRecorder() {
  perfbench::SpanRecorder off(false, 1);
  { perfbench::SpanRecorder::Scope s(&off, "ignored"); }
  Expect(off.spans().empty(), "disabled recorder records nothing");

  perfbench::SpanRecorder rec(true, 7);
  {
    perfbench::SpanRecorder::Scope outer(&rec, "outer");
    { perfbench::SpanRecorder::Scope inner(&rec, "inner"); }
    std::thread worker([&rec] {
      // A span opened on another thread is a root there: parents link only
      // within one thread.
      perfbench::SpanRecorder::Scope other(&rec, "other");
    });
    worker.join();
  }
  const std::vector<perfbench::Span> spans = rec.spans();
  Expect(spans.size() == 3, "three spans recorded");
  if (spans.size() == 3) {
    Expect(spans[0].name == "outer" && spans[0].parent == -1,
           "outer is a root");
    Expect(spans[1].name == "inner" && spans[1].parent == spans[0].id,
           "inner's parent is outer");
    Expect(spans[2].name == "other" && spans[2].parent == -1 &&
               spans[2].thread != spans[0].thread,
           "span on another thread is a root with its own thread index");
    const double outer_s = rec.TotalSeconds("outer");
    const double inner_s = rec.TotalSeconds("inner");
    Expect(outer_s >= inner_s, "outer lasts at least as long as inner");
    Expect(Near(rec.SelfSeconds("outer"), outer_s - inner_s),
           "recorded self time subtracts the child");
  }
  Expect(rec.run_id() == 7, "run id kept");
}

}  // namespace

int main() {
  TestCoveredLength();
  TestSelfTime();
  TestRecorder();
  if (failures != 0) {
    std::fprintf(stderr, "trace_test: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("trace_test: all checks passed\n");
  return 0;
}

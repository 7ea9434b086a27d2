// Tests for the trajectory substrate: segments, paths, programs, frame
// mapping, flattening.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "geom/angle.hpp"
#include "mathx/constants.hpp"
#include "mathx/rng.hpp"
#include "linear/linear_rendezvous.hpp"
#include "linear/zigzag.hpp"
#include "rendezvous/algorithm7.hpp"
#include "rendezvous/variants.hpp"
#include "search/algorithm4.hpp"
#include "search/baselines.hpp"
#include "search/variants.hpp"
#include "support/traj.hpp"
#include "traj/batch.hpp"
#include "traj/frame.hpp"
#include "traj/path.hpp"
#include "traj/program.hpp"
#include "traj/sampler.hpp"
#include "traj/segment.hpp"

namespace {

using namespace rv::traj;
using rv::geom::RobotAttributes;
using rv::geom::Vec2;
using rv::mathx::kPi;
using rv::mathx::kTwoPi;

// ---------------------------------------------------------------------------
// Segments
// ---------------------------------------------------------------------------

TEST(SegmentTest, LineBasics) {
  const Segment seg = LineSeg{{0.0, 0.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(duration(seg), 5.0);
  EXPECT_EQ(start_point(seg), (Vec2{0.0, 0.0}));
  EXPECT_EQ(end_point(seg), (Vec2{3.0, 4.0}));
  EXPECT_TRUE(rv::geom::approx_equal(position_at(seg, 2.5), {1.5, 2.0}));
}

TEST(SegmentTest, PositionClamping) {
  const Segment seg = LineSeg{{0.0, 0.0}, {1.0, 0.0}};
  EXPECT_EQ(position_at(seg, -1.0), (Vec2{0.0, 0.0}));
  EXPECT_EQ(position_at(seg, 10.0), (Vec2{1.0, 0.0}));
}

TEST(SegmentTest, DegenerateLine) {
  const Segment seg = LineSeg{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_DOUBLE_EQ(duration(seg), 0.0);
  EXPECT_EQ(position_at(seg, 0.0), (Vec2{1.0, 1.0}));
}

TEST(SegmentTest, AxisParallelLineDurationIsBitwiseHypot) {
  // duration() skips hypot when one component of a line's delta is
  // zero; C Annex F makes hypot(x, ±0) exactly |x|.  Seeded magnitudes
  // span subnormals to 1e301, and the zero component takes both signs.
  rv::mathx::Xoshiro256 rng(31);
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> values = {0.0,    -0.0, denorm, -denorm,
                                std::numeric_limits<double>::min(),
                                1.0,    1e300, -1e300};
  for (int i = 0; i < 4000; ++i) {
    const double mag = std::ldexp(
        rng.uniform(1.0, 2.0), static_cast<int>(rng.uniform_int(-1075, 1000)));
    values.push_back(rng.uniform_int(0, 1) == 0 ? mag : -mag);
  }
  const auto expect_hypot = [](const LineSeg& line) {
    const double ref =
        std::hypot(line.from.x - line.to.x, line.from.y - line.to.y);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(duration(Segment{line})),
              std::bit_cast<std::uint64_t>(ref))
        << line.from.x << ',' << line.from.y << " -> " << line.to.x << ','
        << line.to.y;
  };
  for (std::size_t i = 0; i + 1 < values.size(); ++i) {
    const double a = values[i];
    const double b = values[i + 1];
    const double c = values[values.size() - 1 - i];
    expect_hypot(LineSeg{{a, c}, {b, c}});        // Δy = +0
    expect_hypot(LineSeg{{a, -0.0}, {b, 0.0}});   // Δy = −0
    expect_hypot(LineSeg{{c, a}, {c, b}});        // Δx = +0
    expect_hypot(LineSeg{{-0.0, a}, {0.0, b}});   // Δx = −0
  }
}

TEST(SegmentTest, ArcBasics) {
  // Unit circle full CCW turn starting at angle 0.
  const Segment seg = ArcSeg{{0.0, 0.0}, 1.0, 0.0, kTwoPi};
  EXPECT_NEAR(duration(seg), kTwoPi, 1e-15);
  EXPECT_TRUE(rv::geom::approx_equal(start_point(seg), {1.0, 0.0}));
  EXPECT_TRUE(rv::geom::approx_equal(end_point(seg), {1.0, 0.0}, 1e-12));
  // Quarter way round: angle π/2.
  EXPECT_TRUE(
      rv::geom::approx_equal(position_at(seg, kPi / 2.0), {0.0, 1.0}, 1e-12));
}

TEST(SegmentTest, ClockwiseArc) {
  const Segment seg = ArcSeg{{0.0, 0.0}, 2.0, kPi / 2.0, -kPi};
  EXPECT_NEAR(duration(seg), 2.0 * kPi, 1e-15);
  EXPECT_TRUE(rv::geom::approx_equal(start_point(seg), {0.0, 2.0}, 1e-12));
  EXPECT_TRUE(rv::geom::approx_equal(end_point(seg), {0.0, -2.0}, 1e-12));
  // Halfway: angle 0 (swept −π/2 from π/2).
  EXPECT_TRUE(
      rv::geom::approx_equal(position_at(seg, kPi), {2.0, 0.0}, 1e-12));
}

TEST(SegmentTest, ArcOnUnitSpeed) {
  // Traversal speed along arcs is 1 (arc length per time unit).
  const Segment seg = ArcSeg{{0.0, 0.0}, 3.0, 0.0, 1.0};
  const double h = 1e-6;
  const Vec2 a = position_at(seg, 1.0);
  const Vec2 b = position_at(seg, 1.0 + h);
  EXPECT_NEAR(rv::geom::distance(a, b) / h, 1.0, 1e-5);
}

TEST(SegmentTest, WaitBasics) {
  const Segment seg = WaitSeg{{2.0, 3.0}, 7.5};
  EXPECT_DOUBLE_EQ(duration(seg), 7.5);
  EXPECT_EQ(position_at(seg, 3.0), (Vec2{2.0, 3.0}));
}

TEST(SegmentTest, ValidationRejectsBadParameters) {
  EXPECT_THROW(validate(Segment{ArcSeg{{0.0, 0.0}, -1.0, 0.0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(validate(Segment{WaitSeg{{0.0, 0.0}, -1.0}}),
               std::invalid_argument);
  EXPECT_THROW(
      validate(Segment{LineSeg{{std::nan(""), 0.0}, {1.0, 0.0}}}),
      std::invalid_argument);
  EXPECT_NO_THROW(validate(Segment{LineSeg{{0.0, 0.0}, {1.0, 0.0}}}));
}

// ---------------------------------------------------------------------------
// Path
// ---------------------------------------------------------------------------

TEST(PathTest, BuildAndEvaluate) {
  Path p;
  p.line_to({1.0, 0.0});
  p.arc_around({0.0, 0.0}, kTwoPi);
  p.line_to({0.0, 0.0});
  EXPECT_EQ(p.size(), 3u);
  EXPECT_NEAR(p.duration(), 2.0 + kTwoPi, 1e-12);
  EXPECT_TRUE(rv::geom::approx_equal(position_at(p, 0.5), {0.5, 0.0}));
  EXPECT_TRUE(
      rv::geom::approx_equal(position_at(p, 1.0 + kPi), {-1.0, 0.0}, 1e-12));
  EXPECT_TRUE(rv::geom::approx_equal(p.end(), {0.0, 0.0}, 1e-12));
}

TEST(PathTest, RejectsDiscontinuousAppend) {
  Path p;
  p.line_to({1.0, 0.0});
  EXPECT_THROW(p.append(LineSeg{{5.0, 5.0}, {6.0, 5.0}}),
               std::invalid_argument);
}

TEST(PathTest, ArcAroundRequiresOffCenterEnd) {
  Path p;
  EXPECT_THROW(p.arc_around({0.0, 0.0}, kPi), std::invalid_argument);
}

TEST(PathTest, WaitKeepsPosition) {
  Path p;
  p.line_to({2.0, 0.0});
  p.wait(5.0);
  EXPECT_DOUBLE_EQ(p.duration(), 7.0);
  EXPECT_TRUE(rv::geom::approx_equal(position_at(p, 4.0), {2.0, 0.0}));
}

TEST(PathTest, ExtendConcatenates) {
  Path a;
  a.line_to({1.0, 0.0});
  Path b({1.0, 0.0});
  b.line_to({1.0, 1.0});
  a.extend(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_TRUE(rv::geom::approx_equal(a.end(), {1.0, 1.0}));
  Path wrong({9.0, 9.0});
  wrong.line_to({9.0, 10.0});
  EXPECT_THROW(a.extend(wrong), std::invalid_argument);
}

TEST(PathTest, PositionClampsOutsideDomain) {
  Path p;
  p.line_to({1.0, 0.0});
  EXPECT_EQ(position_at(p, -5.0), (Vec2{0.0, 0.0}));
  EXPECT_EQ(position_at(p, 99.0), (Vec2{1.0, 0.0}));
}

TEST(PathTest, EmptyPath) {
  const Path p({2.0, 2.0});
  EXPECT_TRUE(p.empty());
  EXPECT_DOUBLE_EQ(p.duration(), 0.0);
  EXPECT_EQ(position_at(p, 1.0), (Vec2{2.0, 2.0}));
}

// ---------------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------------

TEST(ProgramTest, StationaryEmitsWaitsAtOrigin) {
  StationaryProgram prog(10.0);
  for (int i = 0; i < 5; ++i) {
    const Segment seg = prog.next();
    const auto* wait = std::get_if<WaitSeg>(&seg);
    ASSERT_NE(wait, nullptr);
    EXPECT_EQ(wait->at, (Vec2{0.0, 0.0}));
    EXPECT_DOUBLE_EQ(wait->duration, 10.0);
  }
  EXPECT_THROW(StationaryProgram(-1.0), std::invalid_argument);
}

TEST(ProgramTest, PathProgramReplaysThenWaits) {
  Path p;
  p.line_to({1.0, 1.0});
  PathProgram prog(p, "test");
  const Segment first = prog.next();
  EXPECT_TRUE(std::holds_alternative<LineSeg>(first));
  const Segment tail = prog.next();
  const auto* wait = std::get_if<WaitSeg>(&tail);
  ASSERT_NE(wait, nullptr);
  EXPECT_TRUE(rv::geom::approx_equal(wait->at, {1.0, 1.0}));
  EXPECT_EQ(prog.name(), "test");
}

TEST(ProgramTest, PathProgramRequiresOriginStart) {
  Path p({1.0, 0.0});
  p.line_to({2.0, 0.0});
  EXPECT_THROW(PathProgram(p, "bad"), std::invalid_argument);
}

TEST(ProgramTest, MarkRecorder) {
  MarkRecorder rec;
  rec.record(1.0, "alpha");
  rec.record(2.0, "beta");
  ASSERT_EQ(rec.marks().size(), 2u);
  EXPECT_EQ(rec.find("beta")->local_time, 2.0);
  EXPECT_EQ(rec.find("missing"), nullptr);
}

TEST(ProgramTest, BufferedTrajectoryEvaluates) {
  Path p;
  p.line_to({2.0, 0.0});
  auto prog = std::make_shared<PathProgram>(p, "buffered");
  BufferedTrajectory buf(prog);
  EXPECT_TRUE(rv::geom::approx_equal(buf.position_at(1.0), {1.0, 0.0}));
  EXPECT_TRUE(rv::geom::approx_equal(buf.position_at(100.0), {2.0, 0.0}));
  EXPECT_GE(buf.buffered_duration(), 100.0);
}

// ---------------------------------------------------------------------------
// Frame mapping (Lemma 4 made executable)
// ---------------------------------------------------------------------------

TEST(FrameTest, TimedSegmentInterpolatesUniformly) {
  TimedSegment ts{LineSeg{{0.0, 0.0}, {2.0, 0.0}}, 10.0, 14.0};
  EXPECT_TRUE(rv::geom::approx_equal(ts.position(10.0), {0.0, 0.0}));
  EXPECT_TRUE(rv::geom::approx_equal(ts.position(12.0), {1.0, 0.0}));
  EXPECT_TRUE(rv::geom::approx_equal(ts.position(14.0), {2.0, 0.0}));
  EXPECT_DOUBLE_EQ(ts.speed(), 0.5);
  // Waits have zero speed even though their "duration" is positive.
  TimedSegment tw{WaitSeg{{1.0, 1.0}, 4.0}, 0.0, 4.0};
  EXPECT_DOUBLE_EQ(tw.speed(), 0.0);
}

TEST(FrameTest, LineMapsThroughFrame) {
  RobotAttributes a;
  a.speed = 2.0;
  a.orientation = kPi / 2.0;
  const Segment local = LineSeg{{0.0, 0.0}, {1.0, 0.0}};
  const Segment global = to_global_geometry(local, a, {5.0, 5.0});
  const auto* line = std::get_if<LineSeg>(&global);
  ASSERT_NE(line, nullptr);
  EXPECT_TRUE(rv::geom::approx_equal(line->from, {5.0, 5.0}));
  // (1,0) rotated 90° and scaled by v·τ = 2 → (0,2).
  EXPECT_TRUE(rv::geom::approx_equal(line->to, {5.0, 7.0}, 1e-12));
}

TEST(FrameTest, ArcMapsWithChiralityFlip) {
  RobotAttributes a;
  a.chirality = -1;
  const Segment local = ArcSeg{{0.0, 0.0}, 1.0, 0.0, kPi / 2.0};
  const Segment global = to_global_geometry(local, a, {0.0, 0.0});
  const auto* arc = std::get_if<ArcSeg>(&global);
  ASSERT_NE(arc, nullptr);
  // χ = −1 flips the sweep direction (CCW → CW).
  EXPECT_NEAR(arc->sweep, -kPi / 2.0, 1e-15);
  // End point is the mirror image of the local end point.
  EXPECT_TRUE(rv::geom::approx_equal(end_point(global), {0.0, -1.0}, 1e-12));
}

TEST(FrameTest, WaitScalesDurationByTau) {
  RobotAttributes a;
  a.time_unit = 3.0;
  const Segment local = WaitSeg{{1.0, 0.0}, 2.0};
  const Segment global = to_global_geometry(local, a, {0.0, 0.0});
  const auto* wait = std::get_if<WaitSeg>(&global);
  ASSERT_NE(wait, nullptr);
  EXPECT_DOUBLE_EQ(wait->duration, 6.0);
}

class FrameIdentity
    : public ::testing::TestWithParam<std::tuple<double, double, double, int>> {
};

TEST_P(FrameIdentity, GlobalPositionMatchesLemma4Formula) {
  // The global trajectory of R′ must satisfy
  //   p(t) = origin + (v·τ)·R(φ)·C(χ)·S(t/τ)
  // where S is the local program trajectory.
  const auto [v, tau, phi, chi] = GetParam();
  RobotAttributes attrs;
  attrs.speed = v;
  attrs.time_unit = tau;
  attrs.orientation = phi;
  attrs.chirality = chi;
  const Vec2 origin{3.0, -2.0};

  // Local program: line out, quarter arc, wait, line back — exercises
  // all three primitives.
  Path local;
  local.line_to({2.0, 0.0});
  local.arc_around({0.0, 0.0}, kPi / 2.0);
  local.wait(1.0);
  local.line_to({0.0, 0.0});

  GlobalSegmentStream stream(
      std::make_shared<PathProgram>(local, "frame-test"), attrs, origin);

  // Buffer enough global segments to cover the path duration.
  std::vector<TimedSegment> global;
  const double horizon = tau * local.duration();
  while (stream.clock() < horizon) global.push_back(stream.next());

  const rv::geom::Mat2 m = frame_matrix(attrs);
  rv::mathx::Xoshiro256 rng(55);
  for (int i = 0; i < 200; ++i) {
    const double t = rng.uniform(0.0, horizon);
    // Evaluate the global stream at t.
    Vec2 global_pos{};
    for (const TimedSegment& ts : global) {
      if (t <= ts.t1) {
        global_pos = ts.position(t);
        break;
      }
    }
    const Vec2 expected = origin + m * position_at(local, t / tau);
    EXPECT_TRUE(rv::geom::approx_equal(global_pos, expected, 1e-9))
        << "t=" << t << " got " << global_pos.x << ',' << global_pos.y
        << " expected " << expected.x << ',' << expected.y;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FrameIdentity,
    ::testing::Values(std::make_tuple(1.0, 1.0, 0.0, 1),
                      std::make_tuple(2.0, 1.0, kPi / 3.0, 1),
                      std::make_tuple(0.5, 1.0, 1.0, -1),
                      std::make_tuple(1.0, 0.5, 2.0, 1),
                      std::make_tuple(1.5, 2.0, 4.0, -1),
                      std::make_tuple(0.25, 0.25, 5.5, 1)));

TEST(FrameTest, StreamSkipsDegenerateSegments) {
  Path p;
  p.line_to({0.0, 0.0});  // zero-length
  p.line_to({1.0, 0.0});
  GlobalSegmentStream stream(std::make_shared<PathProgram>(p, "degen"),
                                   RobotAttributes{}, {0.0, 0.0});
  const TimedSegment first = stream.next();
  EXPECT_GT(first.t1 - first.t0, 0.0);
  ASSERT_TRUE(std::holds_alternative<LineSeg>(first.geometry));
  const auto* line = std::get_if<LineSeg>(&first.geometry);
  EXPECT_TRUE(rv::geom::approx_equal(line->to, {1.0, 0.0}));
}

TEST(FrameTest, StreamClockAdvancesByTau) {
  Path p;
  p.line_to({1.0, 0.0});
  RobotAttributes slow;
  slow.time_unit = 4.0;
  GlobalSegmentStream stream(std::make_shared<PathProgram>(p, "slow"),
                                   slow, {0.0, 0.0});
  const TimedSegment seg = stream.next();
  // Local duration 1, global duration τ·1 = 4.
  EXPECT_NEAR(seg.t1 - seg.t0, 4.0, 1e-12);
  // Traversal speed is v = 1 (scale v·τ per local unit over τ).
  EXPECT_NEAR(seg.speed(), 1.0, 1e-12);
}

// The segment's kind followed by the bit pattern of each of its doubles,
// so `==` on two of these is bitwise equality of the geometry.
std::vector<std::uint64_t> segment_bits(const Segment& seg) {
  std::vector<std::uint64_t> bits{seg.index()};
  auto push = [&bits](double v) {
    bits.push_back(std::bit_cast<std::uint64_t>(v));
  };
  if (const auto* line = std::get_if<LineSeg>(&seg)) {
    push(line->from.x);
    push(line->from.y);
    push(line->to.x);
    push(line->to.y);
  } else if (const auto* arc = std::get_if<ArcSeg>(&seg)) {
    push(arc->center.x);
    push(arc->center.y);
    push(arc->radius);
    push(arc->start_angle);
    push(arc->sweep);
  } else {
    const auto& wait = std::get<WaitSeg>(seg);
    push(wait.at.x);
    push(wait.at.y);
    push(wait.duration);
  }
  return bits;
}

// The historical stream clock, kept here as the oracle: Neumaier's
// compensated sum of τ·duration over the non-degenerate local
// segments, with every line's length taken by std::hypot.
struct ReferenceClock {
  double sum = 0.0;
  double comp = 0.0;

  // The [t0, t1] of a segment of global duration x.
  std::pair<double, double> advance(double x) {
    const double t0 = sum + comp;
    const double t = sum + x;
    if (std::abs(sum) >= std::abs(x)) {
      comp += (sum - t) + x;
    } else {
      comp += (x - t) + sum;
    }
    sum = t;
    return {t0, sum + comp};
  }
};

double reference_duration(const Segment& seg) {
  if (const auto* line = std::get_if<LineSeg>(&seg)) {
    return std::hypot(line->from.x - line->to.x, line->from.y - line->to.y);
  }
  return duration(seg);
}

TEST(FrameTest, StreamIntoMatchesMappingAndReferenceClockBitwise) {
  // Every shipped program through the in-place stream, into one reused
  // TimedSegment: each segment's geometry must be bitwise the
  // per-segment to_global_geometry of the local one, and its t0/t1
  // bitwise the reference clock's.  Attribute sets cover χ = ±1,
  // non-dyadic τ, non-zero origins, φ = 0 (axis-parallel global lines)
  // and φ within 1e-9 of ±π (normalisation may wrap those, so the
  // oracle maps with the stream's own validated attributes).
  using Factory = std::function<std::shared_ptr<Program>()>;
  const std::vector<std::pair<Factory, int>> programs = {
      {[] { return rv::search::make_search_program(); }, 10'000},
      {[] { return rv::rendezvous::make_rendezvous_program(); }, 10'000},
      {[] {
         return rv::rendezvous::make_variant_rendezvous_program(
             rv::rendezvous::ActivePhaseOrder::kForwardTwice);
       },
       10'000},
      // Without the round wait the variant emits zero-length stand-ins,
      // which the stream must skip.
      {[] {
         return rv::search::make_variant_search_program(
             rv::search::VariantOptions{1.5, false});
       },
       10'000},
      {[] { return rv::search::make_concentric_baseline(); }, 10'000},
      {[] { return rv::search::make_square_spiral_baseline(); }, 10'000},
      // The zigzag throws once round 60 ends.
      {[] { return rv::linear::make_zigzag_program(); }, 200},
      {[] { return rv::linear::make_linear_rendezvous_program(); }, 10'000},
      {[] { return std::make_shared<StationaryProgram>(); }, 10'000},
  };
  rv::mathx::Xoshiro256 rng(4242);
  std::vector<std::pair<RobotAttributes, Vec2>> fleet;
  fleet.emplace_back(RobotAttributes{}, Vec2{});
  const double phis[] = {0.0, kPi - 1e-9, -kPi + 1e-9, kPi,
                         rng.uniform(0.0, kTwoPi)};
  for (const double phi : phis) {
    for (const int chi : {1, -1}) {
      RobotAttributes attrs;
      attrs.speed = rng.uniform(0.3, 3.0);
      attrs.time_unit = rng.uniform(0.3, 0.9);  // not a power of two
      attrs.orientation = phi;
      attrs.chirality = chi;
      fleet.emplace_back(attrs, Vec2{rng.uniform(-2.0, 2.0),
                                     rng.uniform(-2.0, 2.0)});
    }
  }
  for (const auto& [factory, count] : programs) {
    for (const auto& [attrs, origin] : fleet) {
      GlobalSegmentStream stream(factory(), attrs, origin);
      const std::shared_ptr<Program> local = factory();
      const RobotAttributes& validated = stream.attributes();
      ReferenceClock clock;
      TimedSegment global;
      for (int compared = 0; compared < count;) {
        const Segment seg = local->next();
        const double global_dur =
            validated.time_unit * reference_duration(seg);
        if (global_dur <= 0.0) continue;
        stream.next_into(global);
        const auto [t0, t1] = clock.advance(global_dur);
        ASSERT_EQ(segment_bits(global.geometry),
                  segment_bits(to_global_geometry(seg, validated, origin)))
            << local->name() << " phi=" << attrs.orientation
            << " segment " << compared;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(global.t0),
                  std::bit_cast<std::uint64_t>(t0))
            << local->name() << " segment " << compared;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(global.t1),
                  std::bit_cast<std::uint64_t>(t1))
            << local->name() << " segment " << compared;
        ++compared;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sampling / flattening
// ---------------------------------------------------------------------------

TEST(SamplerTest, FlattenArcRespectsChordError) {
  const Segment seg = ArcSeg{{0.0, 0.0}, 2.0, 0.0, kTwoPi};
  const double max_err = 1e-3;
  const auto pts = flatten_segment(seg, max_err);
  ASSERT_GE(pts.size(), 8u);
  // All polyline vertices lie on the circle; midpoints of chords are
  // within max_err of it.
  for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
    const Vec2 mid = rv::geom::lerp(pts[i], pts[i + 1], 0.5);
    EXPECT_NEAR(rv::geom::norm(pts[i]), 2.0, 1e-12);
    EXPECT_GE(rv::geom::norm(mid), 2.0 - max_err - 1e-12);
  }
}

TEST(SamplerTest, FlattenPathDeduplicatesJunctions) {
  Path p;
  p.line_to({1.0, 0.0});
  p.line_to({1.0, 1.0});
  const auto pts = flatten_path(p, 1e-3);
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_TRUE(rv::geom::approx_equal(pts[1], {1.0, 0.0}));
}

TEST(SamplerTest, FlattenRejectsBadTolerance) {
  EXPECT_THROW((void)flatten_segment(Segment{WaitSeg{{0, 0}, 1.0}}, 0.0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Batched SoA position evaluation
// ---------------------------------------------------------------------------

// A random timed segment of the given kind: 0 line, 1 arc, 2 wait,
// 3 zero-length line, 4 zero-span line or arc (t1 == t0), 5 zero-
// duration wait.  Kinds 3–5 are the shapes the batch collapses to a
// constant slot.
TimedSegment random_timed_segment(rv::mathx::Xoshiro256& rng, int kind) {
  const double t0 = rng.uniform(-3.0, 3.0);
  double t1 = t0 + rng.uniform(1e-6, 3.0);
  const Vec2 a{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
  const Vec2 b{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
  const ArcSeg arc{a, rng.uniform(0.1, 3.0), rng.uniform(0.0, kTwoPi),
                   rng.uniform(-2.0, 2.0) * kPi};
  Segment geometry;
  switch (kind) {
    case 0:
      geometry = LineSeg{a, b};
      break;
    case 1:
      geometry = arc;
      break;
    case 2:
      geometry = WaitSeg{a, rng.uniform(0.1, 2.0)};
      break;
    case 3:
      geometry = LineSeg{a, a};
      break;
    case 4:
      t1 = t0;
      if (rng.uniform_int(0, 1) == 0) {
        geometry = LineSeg{a, b};
      } else {
        geometry = arc;
      }
      break;
    default:
      geometry = WaitSeg{a, 0.0};
      break;
  }
  return {geometry, t0, t1};
}

// Every slot's batched position at `at` has the bit pattern of the
// scalar TimedSegment::position.
void expect_batch_bitwise(const BatchedPositions& batch,
                          const std::vector<TimedSegment>& segs, double at) {
  std::vector<Vec2> out(segs.size());
  batch.positions(at, out.data());
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const Vec2 ref = segs[i].position(at);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i].x),
              std::bit_cast<std::uint64_t>(ref.x))
        << "slot " << i << " at=" << at;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i].y),
              std::bit_cast<std::uint64_t>(ref.y))
        << "slot " << i << " at=" << at;
  }
}

TEST(FrameTest, PositionWithCachedDurationIsBitwisePosition) {
  rv::mathx::Xoshiro256 rng(77);
  for (int trial = 0; trial < 600; ++trial) {
    const TimedSegment seg =
        random_timed_segment(rng, static_cast<int>(trial % 6));
    const double dur = duration(seg.geometry);
    for (int k = 0; k < 8; ++k) {
      const double t = rng.uniform(seg.t0 - 0.5, seg.t1 + 0.5);
      const Vec2 cached = seg.position(t, dur);
      const Vec2 plain = seg.position(t);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(cached.x),
                std::bit_cast<std::uint64_t>(plain.x));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(cached.y),
                std::bit_cast<std::uint64_t>(plain.y));
    }
  }
}

TEST(BatchTest, BitwiseMatchesScalarOnRandomSegmentSoups) {
  // The engine's golden bytes depend on BatchedPositions replaying the
  // exact floating-point sequence of TimedSegment::position, so the
  // comparison is of bit patterns, not EXPECT_NEAR: any reordered
  // operation fails loudly.  Query times deliberately land before t0
  // and after t1 to exercise the clamp paths too.
  rv::mathx::Xoshiro256 rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<TimedSegment> segs;
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 19));
    for (int i = 0; i < n; ++i) {
      segs.push_back(
          random_timed_segment(rng, static_cast<int>(rng.uniform_int(0, 5))));
    }
    BatchedPositions batch;
    batch.assemble(segs);
    ASSERT_EQ(batch.size(), segs.size());
    for (int q = 0; q < 8; ++q) {
      expect_batch_bitwise(batch, segs, rng.uniform(-4.0, 7.0));
    }
  }
}

TEST(BatchTest, ReassembleReplacesPreviousFleet) {
  BatchedPositions batch;
  batch.assemble({{LineSeg{{0.0, 0.0}, {1.0, 0.0}}, 0.0, 1.0},
                  {WaitSeg{{2.0, 2.0}, 1.0}, 0.0, 1.0}});
  ASSERT_EQ(batch.size(), 2u);
  batch.assemble({{LineSeg{{0.0, 0.0}, {0.0, 2.0}}, 0.0, 2.0}});
  ASSERT_EQ(batch.size(), 1u);
  Vec2 out;
  batch.positions(1.0, &out);
  const TimedSegment ref{LineSeg{{0.0, 0.0}, {0.0, 2.0}}, 0.0, 2.0};
  EXPECT_EQ(out.x, ref.position(1.0).x);
  EXPECT_EQ(out.y, ref.position(1.0).y);
}

TEST(BatchTest, AssembleOneIsABitwiseDropIn) {
  // The sweep rewrites one slot per pulled robot instead of
  // re-assembling the fleet, so a slot must hold no state from the
  // segment it replaced — in particular across kind changes, where
  // the new kind reads fields the old one left stale.
  rv::mathx::Xoshiro256 rng(1403);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 11));
    std::vector<TimedSegment> segs;
    for (int i = 0; i < n; ++i) {
      segs.push_back(
          random_timed_segment(rng, static_cast<int>(rng.uniform_int(0, 5))));
    }
    BatchedPositions batch;
    batch.assemble(segs);
    for (int step = 0; step < 40; ++step) {
      const auto i = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      segs[i] =
          random_timed_segment(rng, static_cast<int>(rng.uniform_int(0, 5)));
      batch.assemble_one(i, segs[i], duration(segs[i].geometry));
      ASSERT_EQ(batch.size(), segs.size());
      for (int q = 0; q < 4; ++q) {
        expect_batch_bitwise(batch, segs, rng.uniform(-4.0, 7.0));
      }
    }
  }

  // One slot walks arc → each constant shape → line while its
  // neighbours stay put.
  std::vector<TimedSegment> segs = {random_timed_segment(rng, 0),
                                    random_timed_segment(rng, 1),
                                    random_timed_segment(rng, 2)};
  BatchedPositions batch;
  batch.assemble(segs);
  for (const int kind : {1, 2, 1, 3, 1, 4, 1, 5, 0, 1, 0}) {
    segs[1] = random_timed_segment(rng, kind);
    batch.assemble_one(1, segs[1], duration(segs[1].geometry));
    for (int q = 0; q < 8; ++q) {
      expect_batch_bitwise(batch, segs, rng.uniform(-4.0, 7.0));
    }
  }
}

}  // namespace

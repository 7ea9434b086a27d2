#include "search/baselines.hpp"

#include <cmath>
#include <stdexcept>

#include "mathx/binary.hpp"
#include "search/emitter.hpp"

namespace rv::search {

using geom::Vec2;
using rv::mathx::pow2;
using traj::LineSeg;
using traj::Segment;

// ---------------------------------------------------------------------------
// ConcentricSweepProgram
// ---------------------------------------------------------------------------

ConcentricSweepProgram::ConcentricSweepProgram() { load_round(); }

void ConcentricSweepProgram::load_round() {
  // Round m: granularity ρ = 2^{−m}, range R = 2^m, circles at radii
  // (2i+1)ρ for i = 0..count−1 with count = R/(2ρ) = 2^{2m−1}.
  count_ = std::uint64_t{1} << (2 * m_ - 1);
  i_ = 0;
  phase_ = 0;
}

double ConcentricSweepProgram::radius() const {
  const double rho = pow2(-m_);
  return (2.0 * static_cast<double>(i_) + 1.0) * rho;
}

Segment ConcentricSweepProgram::next() {
  const double r = radius();
  const int phase = phase_;
  if (++phase_ == 3) {
    phase_ = 0;
    if (++i_ == count_) {
      ++m_;
      if (m_ > 30) {
        throw std::logic_error("ConcentricSweepProgram: round overflow");
      }
      load_round();
    }
  }
  return circle_leg(r, phase);
}

// ---------------------------------------------------------------------------
// SquareSpiralProgram
// ---------------------------------------------------------------------------

SquareSpiralProgram::SquareSpiralProgram() { load_round(); }

double SquareSpiralProgram::half_extent() const { return pow2(m_); }

double SquareSpiralProgram::step() const {
  return pow2(-m_) * std::sqrt(2.0);
}

void SquareSpiralProgram::load_round() {
  const double h = half_extent();
  const double s = step();
  rows_ = static_cast<std::int64_t>(std::floor(2.0 * h / s)) + 1;
  row_ = 0;
  phase_ = 0;
}

Segment SquareSpiralProgram::next() {
  const double h = half_extent();
  const double s = step();
  const double y = -h + static_cast<double>(row_) * s;

  const Vec2 from = cursor_;
  if (phase_ == 0) {
    // Move (diagonally for the first row, vertically otherwise) to the
    // start of the scan row.
    cursor_ = {(row_ % 2 == 0) ? -h : h, y};
    phase_ = 1;
  } else if (phase_ == 1) {
    cursor_ = {(row_ % 2 == 0) ? h : -h, y};
    ++row_;
    phase_ = (row_ < rows_) ? 0 : 2;
  } else {
    cursor_ = {0.0, 0.0};
    ++m_;
    if (m_ > 16) {
      throw std::logic_error("SquareSpiralProgram: round overflow");
    }
    load_round();
  }
  return LineSeg{from, cursor_};
}

std::shared_ptr<traj::Program> make_concentric_baseline() {
  return std::make_shared<ConcentricSweepProgram>();
}

std::shared_ptr<traj::Program> make_square_spiral_baseline() {
  return std::make_shared<SquareSpiralProgram>();
}

}  // namespace rv::search

// Incremental statistics for streaming telemetry: a P² quantile estimator
// (Jain & Chlamtac), a fixed-capacity rolling window, and a decaying peak
// tracker for working sets. These let the online controller maintain
// per-workload profile statistics in O(1) per sample instead of re-scanning
// history.
#ifndef KAIROS_ONLINE_ESTIMATORS_H_
#define KAIROS_ONLINE_ESTIMATORS_H_

#include <cstddef>
#include <vector>

#include "util/timeseries.h"

namespace kairos::online {

/// Streaming quantile estimation with the P² algorithm: five markers whose
/// heights approximate the q-quantile without storing samples. Exact for
/// the first five observations, O(1) memory and time per update.
class P2Quantile {
 public:
  /// `q` in (0, 1), e.g. 0.95 for the p95.
  explicit P2Quantile(double q);

  void Add(double x);
  /// Current estimate (exact below 5 samples; 0 when empty).
  double Estimate() const;
  size_t count() const { return count_; }

 private:
  double q_;
  size_t count_ = 0;
  double heights_[5];
  double positions_[5];
  double desired_[5];
  double increments_[5];
};

/// Last-W samples of one signal, with window statistics and export to the
/// profile time-series format. Push is O(1) (ring buffer); the statistics
/// and export walk the window.
class RollingWindow {
 public:
  RollingWindow(size_t capacity, double interval_seconds);

  void Push(double value);
  size_t size() const { return values_.size(); }
  bool full() const { return values_.size() == capacity_; }

  double Mean() const;
  double Max() const;

  /// Window contents, oldest first, as a TimeSeries.
  util::TimeSeries ToSeries() const;

 private:
  size_t capacity_;
  double interval_seconds_;
  std::vector<double> values_;  // ring; oldest at start_ once full
  size_t start_ = 0;
};

/// Peak tracker with geometric decay: follows a rising signal exactly and
/// forgets spikes at `decay` per sample. Used for working-set estimates,
/// which should deflate slowly after a burst.
class DecayingMax {
 public:
  explicit DecayingMax(double decay = 0.99) : decay_(decay) {}

  void Push(double value);
  double value() const { return value_; }

 private:
  double decay_;
  double value_ = 0.0;
};

// ---------------------------------------------------------------------------
// SoA estimator banks — the batch form of the scalar estimators above.
//
// One bank holds the state of N per-stream estimators in flat arrays and is
// updated in *lockstep*: every monitoring step, every stream absorbs exactly
// one value (streams may be pushed from different threads as long as each
// thread touches a disjoint stream range), then a single thread calls
// CommitStep() to advance the shared step counters. Because each stream's
// update reads and writes only that stream's slice plus shared read-only
// step state, the bank's contents after k committed steps are bit-identical
// to k Push/Add calls on N independent scalar estimator objects — no matter
// how the streams were partitioned across threads. The scalar classes are
// the reference semantics; the banks are the hot path.
// ---------------------------------------------------------------------------

/// N RollingWindows over one signal, slot-major: a step writes one
/// contiguous row of N doubles instead of N strided ring slots.
class RollingWindowBank {
 public:
  RollingWindowBank(int streams, size_t capacity, double interval_seconds);

  /// Stream `w`'s value for the current (uncommitted) step. Writes only
  /// stream w's cell of the step row — safe concurrently for distinct w.
  void Push(int w, double value) { write_row_[w] = value; }

  /// Advances the shared ring state; call exactly once per step, after
  /// every stream was pushed, from a single thread.
  void CommitStep();

  int streams() const { return streams_; }
  size_t size() const { return size_; }
  bool full() const { return size_ == capacity_; }

  /// Writes stream w's size() window samples to `out`, oldest first — the
  /// order RollingWindow::ToSeries exports. Allocation-free.
  void CopyOrdered(int w, double* out) const;

  /// CopyOrdered into a fresh TimeSeries.
  util::TimeSeries ToSeries(int w) const;

 private:
  int streams_;
  size_t capacity_;
  double interval_seconds_;
  size_t size_ = 0;   ///< committed samples per stream (<= capacity)
  size_t start_ = 0;  ///< oldest slot once full (== scalar start_)
  std::vector<double> values_;  ///< [slot * streams + w]
  double* write_row_;           ///< &values_[write_slot * streams]
};

/// N P² estimators for the same quantile. Marker heights/positions are
/// per-stream; the sample count and the desired-position ladder are shared
/// (they depend only on q and the step count, which lockstep makes common
/// to every stream) and advance by the same single FP addition per step
/// that the scalar estimator performs — keeping the math bit-identical.
class P2QuantileBank {
 public:
  P2QuantileBank(int streams, double q);

  /// Stream w's value for the current step (one per stream per step;
  /// disjoint streams may be updated concurrently).
  void Add(int w, double x);

  /// Call exactly once per step, after every stream was added.
  void CommitStep();

  double Estimate(int w) const;
  size_t count() const { return count_; }  ///< committed samples per stream

 private:
  int streams_;
  double q_;
  size_t count_ = 0;
  double increments_[5];
  double desired_[5];       ///< ladder after count_ committed samples
  double desired_step_[5];  ///< ladder Add() must see for the current step
  std::vector<double> heights_;    ///< [w * 5 + i]
  std::vector<double> positions_;  ///< [w * 5 + i]
};

/// N DecayingMax trackers. Stateless across streams: no commit needed.
class DecayingMaxBank {
 public:
  DecayingMaxBank(int streams, double decay);

  void Push(int w, double value);
  double value(int w) const { return values_[w]; }

 private:
  double decay_;
  std::vector<double> values_;
};

}  // namespace kairos::online

#endif  // KAIROS_ONLINE_ESTIMATORS_H_

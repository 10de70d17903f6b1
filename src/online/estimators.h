// Incremental statistics for streaming telemetry: fixed-capacity rolling
// windows and decaying peak trackers for working sets. These let the online
// controller maintain per-workload profile statistics in O(1) per sample
// instead of re-scanning history.
//
// Each bank holds the state of N per-stream estimators in flat arrays and is
// updated in *lockstep*: every monitoring step, every stream absorbs exactly
// one value (streams may be pushed from different threads as long as each
// thread touches a disjoint stream range), then a single thread calls
// CommitStep() to advance the shared step counters. Because each stream's
// update reads and writes only that stream's slice plus shared read-only
// step state, the bank's contents after k committed steps are bit-identical
// to k Push calls on N independent scalar estimators — no matter how the
// streams were partitioned across threads. The scalar reference semantics
// live in tests/oracle/scalar_estimators.h.
#ifndef KAIROS_ONLINE_ESTIMATORS_H_
#define KAIROS_ONLINE_ESTIMATORS_H_

#include <cstddef>
#include <vector>

#include "monitor/profile.h"
#include "util/timeseries.h"

namespace kairos::online {

/// N rolling windows over one signal, slot-major: a step writes one
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

  size_t size() const { return size_; }
  bool full() const { return size_ == capacity_; }

  /// Stream w's size() window samples in place: its column of the ring,
  /// read oldest first from slot start_ (what monitor::SummarizeWindow
  /// takes).
  monitor::WindowView Window(int w) const {
    return {values_.data() + w, static_cast<size_t>(streams_), start_, size_};
  }

  /// Stream w's window, oldest first.
  util::TimeSeries ToSeries(int w) const;

 private:
  int streams_;
  size_t capacity_;
  double interval_seconds_;
  size_t size_ = 0;   ///< committed samples per stream (<= capacity)
  size_t start_ = 0;  ///< oldest slot once full
  std::vector<double> values_;  ///< [slot * streams + w]
  double* write_row_;           ///< &values_[write_slot * streams]
};

/// N peak trackers with geometric decay: each follows a rising signal
/// exactly and forgets spikes at `decay` per sample, so working-set
/// estimates deflate slowly after a burst. Stateless across streams: no
/// commit needed.
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

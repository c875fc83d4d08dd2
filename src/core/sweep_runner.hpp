/**
 * @file
 * SweepRunner: deterministic fan-out of embarrassingly-parallel bench
 * cases onto host threads.
 *
 * Every figXX sweep runs N independent cases (VM counts, optimization
 * sets, ...); each case builds its own Testbed — its own EventQueue,
 * RNGs and metric registries — so cases share no simulation state and
 * their results cannot depend on host scheduling. SweepRunner only
 * decides *when* each case body runs: with jobs <= 1 it is a plain
 * loop on the calling thread (the default, and bit-for-bit the
 * behaviour before this class existed); with jobs > 1 it runs the
 * bodies on a small thread pool fed by an atomic case counter.
 *
 * Determinism contract: the caller deposits each case's results into
 * per-index storage and merges them *in declaration order* after
 * run() returns (see core::FigReport::sweep), so reports and digests
 * are byte-identical for every --jobs value — parallelism changes
 * wall-time only. A Chrome trace captures the first case, so
 * FigReport forces jobs=1 when tracing.
 *
 * Exceptions: a throwing case does not tear down the process from a
 * worker thread. All cases are allowed to finish, then the exception
 * of the lowest-index failing case is rethrown on the calling thread —
 * again matching what the sequential loop would have surfaced first.
 */

#ifndef SRIOV_CORE_SWEEP_RUNNER_HPP
#define SRIOV_CORE_SWEEP_RUNNER_HPP

#include <cstddef>
#include <functional>

namespace sriov::core {

class SweepRunner
{
  public:
    /** @p jobs: host threads to use; 0 is treated as 1 (sequential). */
    explicit SweepRunner(unsigned jobs) : jobs_(jobs == 0 ? 1 : jobs) {}

    unsigned jobs() const { return jobs_; }

    /**
     * Run @p body(0) .. @p body(n - 1), concurrently when jobs() > 1,
     * and block until every case finished. The body must confine its
     * writes to per-index storage. Rethrows the lowest-index case's
     * exception, if any.
     */
    void run(std::size_t n,
             const std::function<void(std::size_t)> &body) const;

  private:
    unsigned jobs_;
};

} // namespace sriov::core

#endif // SRIOV_CORE_SWEEP_RUNNER_HPP

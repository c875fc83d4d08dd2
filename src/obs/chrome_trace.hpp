/**
 * @file
 * ChromeTraceWriter: exports simulator activity as Chrome
 * `trace_event` JSON, loadable in Perfetto / chrome://tracing.
 *
 * Two sources feed one timeline (simulated time on the horizontal
 * axis, microsecond resolution):
 *  - CpuServer work spans — complete ("X") slices on one track per
 *    CPU server, named by the work's accounting tag ("guest-1",
 *    "xen", "dom0", ...). This is the paper's CPU breakdown, drawn.
 *  - EventQueue executions — instant ("i") marks, named by the event
 *    tag, on the executing queue's own track (one per attached queue,
 *    so each island of a partition draws its own events).
 *
 * The writer buffers events in memory up to a cap (keeping the oldest,
 * counting drops) and serializes on demand. Taps attached to
 * CpuServers / EventQueues must be detached (detachAll()) before the
 * writer is destroyed unless the sources die first.
 */

#ifndef SRIOV_OBS_CHROME_TRACE_HPP
#define SRIOV_OBS_CHROME_TRACE_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/cpu_server.hpp"
#include "sim/event_queue.hpp"

namespace sriov::obs {

class ChromeTraceWriter : public sim::CpuServer::SpanTap
{
  public:
    /** A (process row, thread row) pair in the trace viewer. */
    struct Track
    {
        int pid = 0;
        int tid = 0;
    };

    static constexpr std::size_t kDefaultMaxEvents = 200000;

    explicit ChromeTraceWriter(std::size_t max_events = kDefaultMaxEvents);
    ~ChromeTraceWriter() override;

    ChromeTraceWriter(const ChromeTraceWriter &) = delete;
    ChromeTraceWriter &operator=(const ChromeTraceWriter &) = delete;

    /** @name Manual event emission. @{ */
    Track track(const std::string &process, const std::string &thread);
    void addSpan(Track t, std::string name, sim::Time start, sim::Time end);
    void addInstant(Track t, std::string name, sim::Time when);
    /**
     * Perfetto flow event: @p phase is 's' (start), 't' (step) or
     * 'f' (end); events sharing @p flow_id draw one causal arrow
     * chain across tracks. Bind each to an enclosing slice by emitting
     * it at the slice's start timestamp.
     */
    void addFlow(Track t, std::string name, std::uint64_t flow_id,
                 char phase, sim::Time when);
    /** @} */

    /** @name Source attachment. @{ */

    /** Draw @p cpu's work spans on track (@p process, cpu name). */
    void attachCpu(sim::CpuServer &cpu, const std::string &process);

    /** Mark @p eq's tagged events on track (@p process, "events"). */
    void attachEventQueue(sim::EventQueue &eq,
                          const std::string &process = "sim");

    /** Remove this writer's taps from every attached source. */
    void detachAll();

    /** @} */

    /** SpanTap (called by the attached CPU servers). */
    void onCpuSpan(const sim::CpuServer &cpu, const std::string &tag,
                   sim::Time start, sim::Time end) override;

    /** Room for @p n events beyond those kept so far, so a second
     *  source gets its own budget in the same file (drops already
     *  counted stay counted). */
    void addBudget(std::size_t n) { max_events_ = events_.size() + n; }

    std::size_t eventCount() const { return events_.size(); }
    std::uint64_t droppedEvents() const { return dropped_; }
    std::size_t trackCount() const { return tids_.size(); }

    /**
     * Capacity drops broken out per (pid, tid) track, so one saturated
     * track (a chatty event queue, say) cannot silently mask
     * drops on another. The sum equals droppedEvents(); toJson()
     * publishes the breakdown as sriovDroppedByTrack.
     */
    const std::map<std::pair<int, int>, std::uint64_t> &
    droppedByTrack() const
    {
        return dropped_by_track_;
    }

    /** The complete `{"traceEvents": [...]}` document. */
    std::string toJson() const;

    /** Write toJson() to @p path, creating parent directories. */
    bool writeTo(const std::string &path) const;

  private:
    struct Event
    {
        char phase;          // 'X' complete, 'i' instant, 's'/'t'/'f' flow
        int pid;
        int tid;
        std::string name;
        std::int64_t ts_ps;
        std::int64_t dur_ps;    // complete events only
        std::uint64_t flow_id = 0; // flow events only
    };

    /** The ExecHook of one attached queue: it draws on that queue's
     *  track (ExecHook calls do not say which queue is executing). */
    struct QueueTap final : sim::EventQueue::ExecHook
    {
        QueueTap(ChromeTraceWriter &w, sim::EventQueue &eq, Track t)
            : writer(w), queue(eq), track(t)
        {}

        void onEventStart(sim::Time, std::uint64_t, const char *) override
        {}
        void onEventEnd(sim::Time when, std::uint64_t seq,
                        const char *tag) override;

        ChromeTraceWriter &writer;
        sim::EventQueue &queue;
        Track track;
    };

    void push(Event e);

    std::size_t max_events_;
    std::uint64_t dropped_ = 0;
    std::map<std::pair<int, int>, std::uint64_t> dropped_by_track_;
    std::vector<Event> events_;
    std::map<std::string, int> pids_;
    std::map<std::pair<int, std::string>, int> tids_;
    std::vector<sim::CpuServer *> attached_cpus_;
    std::vector<std::unique_ptr<QueueTap>> queue_taps_;
    std::map<const sim::CpuServer *, Track> cpu_tracks_;
};

} // namespace sriov::obs

#endif // SRIOV_OBS_CHROME_TRACE_HPP

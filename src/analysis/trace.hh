/**
 * @file
 * Chrome-trace (chrome://tracing / Perfetto) exporter for simulation
 * timelines: per-GPU kernel spans, switch merge activity instants,
 * and link-utilization counter tracks. Load the emitted JSON in
 * Perfetto to inspect how CAIS pipelines kernels where the baselines
 * serialize.
 */

#ifndef CAIS_ANALYSIS_TRACE_HH
#define CAIS_ANALYSIS_TRACE_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace cais
{

/**
 * Collects trace events and renders Chrome trace-event JSON.
 * Rendering sorts events into a canonical (ts, pid, tid, ...) order.
 *
 * Events are stored as compact fixed-size records whose names,
 * categories and metadata values are ids into an interned string
 * table, so a counter sample costs one table lookup and copies no
 * string.
 */
class TraceCollector
{
  public:
    TraceCollector();

    /**
     * Complete ("X") event: a span on a track.
     * @param pid process lane (0 = GPUs, 1 = fabric).
     * @param tid thread lane within the process (e.g. GPU id).
     */
    void addSpan(const std::string &name, const std::string &category,
                 int pid, int tid, Cycle start, Cycle end);

    /** Instant ("i") event. */
    void addInstant(const std::string &name,
                    const std::string &category, int pid, int tid,
                    Cycle at);

    /** Counter ("C") sample (e.g. link utilization percent). */
    void addCounter(const std::string &name, int pid, Cycle at,
                    double value);

    /** Label a (pid, tid) lane (thread_name metadata). */
    void nameLane(int pid, int tid, const std::string &name);

    /** Label a pid (process_name metadata). */
    void nameProcess(int pid, const std::string &name);

    std::size_t numEvents() const { return events.size(); }

    /** Render the whole trace as Chrome trace-event JSON. */
    std::string toJson() const;

    /** Write toJson() to @p path; returns false on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    /** One trace event; trivially copyable. */
    struct Event
    {
        Cycle ts;
        Cycle dur;           // X only
        double value;        // C only
        int pid;
        int tid;
        std::uint32_t name;  // string-table ids
        std::uint32_t category;
        std::uint32_t meta;  // M only ("" otherwise)
        char phase;          // 'X', 'i', 'C', 'M'
    };

    /** Ids the constructor interns first. */
    static constexpr std::uint32_t emptyId = 0;
    static constexpr std::uint32_t counterId = 1;

    /** Id of @p s in the string table, adding it if new. */
    std::uint32_t intern(const std::string &s);

    std::vector<Event> events;
    /** Interned strings by id, and the id of each string. */
    std::vector<std::string> strings;
    std::unordered_map<std::string, std::uint32_t> ids;
};

} // namespace cais

#endif // CAIS_ANALYSIS_TRACE_HH

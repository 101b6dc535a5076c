#include "analysis/trace.hh"

#include <algorithm>
#include <numeric>
#include <string_view>
#include <tuple>
#include <type_traits>

#include "common/json.hh"

namespace cais
{

TraceCollector::TraceCollector()
{
    static_assert(std::is_trivially_copyable_v<Event>);
    intern("");
    intern("counter");
}

std::uint32_t
TraceCollector::intern(const std::string &s)
{
    auto [it, added] =
        ids.try_emplace(s, static_cast<std::uint32_t>(strings.size()));
    if (added)
        strings.push_back(s);
    return it->second;
}

void
TraceCollector::addSpan(const std::string &name,
                        const std::string &category, int pid, int tid,
                        Cycle start, Cycle end)
{
    events.push_back({start, end > start ? end - start : 0, 0.0, pid,
                      tid, intern(name), intern(category), emptyId,
                      'X'});
}

void
TraceCollector::addInstant(const std::string &name,
                           const std::string &category, int pid,
                           int tid, Cycle at)
{
    events.push_back({at, 0, 0.0, pid, tid, intern(name),
                      intern(category), emptyId, 'i'});
}

void
TraceCollector::addCounter(const std::string &name, int pid, Cycle at,
                           double value)
{
    events.push_back({at, 0, value, pid, 0, intern(name), counterId,
                      emptyId, 'C'});
}

void
TraceCollector::nameLane(int pid, int tid, const std::string &name)
{
    events.push_back({0, 0, 0.0, pid, tid, intern("thread_name"),
                      emptyId, intern(name), 'M'});
}

void
TraceCollector::nameProcess(int pid, const std::string &name)
{
    events.push_back({0, 0, 0.0, pid, 0, intern("process_name"),
                      emptyId, intern(name), 'M'});
}

std::string
TraceCollector::toJson() const
{
    // Canonical order: sorting on the full event value makes the
    // rendered trace a function of the simulated behaviour alone,
    // not of the order the recording sites happened to run in.
    // Strings compare by their rank in the sorted string table, which
    // orders them exactly as comparing the strings would.
    std::vector<std::uint32_t> by_rank(strings.size());
    std::iota(by_rank.begin(), by_rank.end(), 0u);
    std::sort(by_rank.begin(), by_rank.end(),
              [this](std::uint32_t a, std::uint32_t b) {
        return strings[a] < strings[b];
    });
    std::vector<std::uint32_t> rank(strings.size());
    for (std::uint32_t r = 0; r < by_rank.size(); ++r)
        rank[by_rank[r]] = r;

    std::vector<Event> sorted = events;
    for (Event &e : sorted) {
        e.name = rank[e.name];
        e.category = rank[e.category];
        e.meta = rank[e.meta];
    }
    auto key = [](const Event &e) {
        return std::tie(e.ts, e.pid, e.tid, e.phase, e.category,
                        e.name, e.dur, e.value, e.meta);
    };
    // Stable: +0.0 and -0.0 counter values compare equal but render
    // differently, so ties keep their insertion order.
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&key](const Event &a, const Event &b) {
        return key(a) < key(b);
    });
    auto str = [&](std::uint32_t r) -> const std::string & {
        return strings[by_rank[r]];
    };

    // Trace-event time is microseconds; simulation cycles are ns.
    JsonWriter w;
    w.reserve(96 * sorted.size() + 64);
    w.beginObject();
    w.field("displayTimeUnit", "ns");
    w.key("traceEvents").beginArray();
    for (const Event &e : sorted) {
        w.beginObject();
        w.field("ph", std::string_view(&e.phase, 1));
        w.field("pid", e.pid).field("tid", e.tid);
        w.field("ts", static_cast<double>(e.ts) / 1000.0);
        switch (e.phase) {
          case 'X':
            w.field("dur", static_cast<double>(e.dur) / 1000.0);
            w.field("name", str(e.name)).field("cat", str(e.category));
            break;
          case 'i':
            w.field("s", "t");
            w.field("name", str(e.name)).field("cat", str(e.category));
            break;
          case 'C':
            w.field("name", str(e.name));
            w.key("args").beginObject()
                .field("value", e.value).endObject();
            break;
          case 'M':
            w.field("name", str(e.name));
            w.key("args").beginObject()
                .field("name", str(e.meta)).endObject();
            break;
          default:
            break;
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.take();
}

bool
TraceCollector::writeFile(const std::string &path) const
{
    return writeDocumentFile(path, toJson(), false);
}

} // namespace cais

#include "sweep/status_stream.hh"

#include <iostream>

#include "obs/telemetry.hh"
#include "util/json.hh"

namespace slip {

double
etaSeconds(std::size_t done, std::size_t total, double elapsed_seconds)
{
    if (done == 0 || total <= done)
        return 0.0;
    return static_cast<double>(total - done) *
           (elapsed_seconds / static_cast<double>(done));
}

StatusStream::StatusStream(const std::string &path)
    : _originNs(obs::monotonicNowNs())
{
    if (path == "-") {
        _os = &std::cout;
    } else {
        _file.open(path, std::ios::trunc);
        _os = &_file;
    }
}

std::unique_ptr<StatusStream>
StatusStream::open(const std::string &path, std::string *err)
{
    std::unique_ptr<StatusStream> s(new StatusStream(path));
    if (!*s->_os) {
        if (err)
            *err = "cannot open status stream: " + path;
        return nullptr;
    }
    return s;
}

double
StatusStream::nowMs() const
{
    return static_cast<double>(obs::monotonicNowNs() - _originNs) * 1e-6;
}

void
StatusStream::emitPlan(const std::vector<std::string> &keys,
                       unsigned jobs, unsigned run_threads)
{
    json::Value v = json::Value::object();
    v["event"] = "plan";
    v["ts_ms"] = nowMs();
    v["runs"] = static_cast<std::uint64_t>(keys.size());
    v["jobs"] = jobs;
    v["run_threads"] = run_threads;
    json::Value &ks = v["keys"];
    ks = json::Value::array();
    for (const std::string &k : keys)
        ks.push(json::Value(k));

    std::unique_lock<std::mutex> lock(_mu);
    v.writeCompact(*_os);
    *_os << '\n' << std::flush;
}

void
StatusStream::emitStart(const std::string &key, const std::string &label)
{
    json::Value v = json::Value::object();
    v["event"] = "start";
    v["ts_ms"] = nowMs();
    v["key"] = key;
    v["label"] = label;

    std::unique_lock<std::mutex> lock(_mu);
    v.writeCompact(*_os);
    *_os << '\n' << std::flush;
}

void
StatusStream::emitFinish(const SweepRunner::RunRecord &rec)
{
    // Stamped under the lock, so finish lines carry increasing ts_ms
    // in file order.
    std::unique_lock<std::mutex> lock(_mu);
    const double ts = nowMs();
    json::Value v = json::Value::object();
    v["event"] = "finish";
    v["ts_ms"] = ts;
    v["key"] = rec.key;
    v["label"] = rec.label;
    v["cached"] = rec.cached;
    v["seconds"] = rec.seconds;
    v["done"] = static_cast<std::uint64_t>(rec.done);
    v["total"] = static_cast<std::uint64_t>(rec.total);
    v["fraction"] = rec.total
        ? static_cast<double>(rec.done) / static_cast<double>(rec.total)
        : 0.0;
    v["eta_seconds"] = etaSeconds(rec.done, rec.total, ts * 1e-3);
    v.writeCompact(*_os);
    *_os << '\n' << std::flush;
}

void
StatusStream::emitDone(const SweepRunner::Stats &stats,
                       double wall_seconds)
{
    json::Value v = json::Value::object();
    v["event"] = "done";
    v["ts_ms"] = nowMs();
    v["executed"] = stats.executed;
    v["cache_hits"] = stats.cacheHits;
    v["run_seconds_sum"] = stats.simSeconds;
    v["wall_seconds"] = wall_seconds;

    std::unique_lock<std::mutex> lock(_mu);
    v.writeCompact(*_os);
    *_os << '\n' << std::flush;
}

} // namespace slip

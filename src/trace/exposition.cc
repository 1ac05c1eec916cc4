#include "trace/exposition.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "sim/logging.hh"
#include "stats/json.hh"

namespace relief
{

namespace
{

/** Prometheus sample value: deterministic formatting, and Prometheus
 *  spells non-finite values NaN/+Inf/-Inf (JSON null is invalid). */
std::string
promNumber(double value)
{
    if (std::isnan(value))
        return "NaN";
    if (std::isinf(value))
        return value > 0 ? "+Inf" : "-Inf";
    return jsonNumber(value);
}

} // namespace

StatExposition::StatExposition(Simulator &sim, const StatRegistry &stats,
                               ExpositionConfig config)
    : PeriodicService(sim, "exposition", config.period, HostCat::Stats,
                      "exposition.tick"),
      stats_(stats), config_(std::move(config))
{
    RELIEF_ASSERT(!config_.prefix.empty(),
                  "exposition prefix must not be empty");
}

std::string
StatExposition::sanitizeName(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':';
        if (!ok)
            c = '_';
    }
    return out;
}

void
StatExposition::snapshotNow()
{
    publish();
}

void
StatExposition::publish()
{
    std::string text = render();
    writeFile(text);
    snapshots_.push_back(std::move(text));
    prevTick_ = now();
}

std::string
StatExposition::render()
{
    const std::size_t index = snapshots_.size();
    const double window_s =
        double(now() - prevTick_) / double(tickPerSec);
    std::ostringstream os;
    const std::string &p = config_.prefix;

    os << "# " << p << " exposition snapshot " << index << " at "
       << promNumber(toMs(now())) << " sim ms\n";
    os << "# TYPE " << p << "_exposition_snapshots counter\n"
       << p << "_exposition_snapshots " << (index + 1) << "\n";
    os << "# TYPE " << p << "_exposition_sim_time_ms gauge\n"
       << p << "_exposition_sim_time_ms " << promNumber(toMs(now()))
       << "\n";

    // Stats bound since the previous snapshot start from 0.
    prevValues_.resize(stats_.size(), 0.0);
    std::size_t position = 0;
    stats_.forEach([&](const Stat &stat) {
        const std::string metric = p + "_" + sanitizeName(stat.name());
        switch (stat.kind()) {
          case StatKind::Counter: {
            double value = double(stat.counter());
            os << "# TYPE " << metric << "_total counter\n"
               << metric << "_total " << promNumber(value) << "\n";
            // Delta-window rate: change since the previous snapshot
            // over the window, not a cumulative average — readable
            // without a scraper-side derivative.
            double &prev = prevValues_[position];
            double rate =
                window_s > 0.0 ? (value - prev) / window_s : 0.0;
            os << "# TYPE " << metric << "_per_sec gauge\n"
               << metric << "_per_sec " << promNumber(rate) << "\n";
            prev = value;
            break;
          }
          case StatKind::Scalar:
          case StatKind::Formula:
            os << "# TYPE " << metric << " gauge\n"
               << metric << " " << promNumber(stat.value()) << "\n";
            break;
          case StatKind::Histogram: {
            const Histogram &hist = stat.histogram();
            os << "# TYPE " << metric << " summary\n"
               << metric << "{quantile=\"0.5\"} "
               << promNumber(hist.quantile(0.50)) << "\n"
               << metric << "{quantile=\"0.95\"} "
               << promNumber(hist.quantile(0.95)) << "\n"
               << metric << "{quantile=\"0.99\"} "
               << promNumber(hist.quantile(0.99)) << "\n"
               << metric << "_sum "
               << promNumber(hist.mean() * double(hist.count())) << "\n"
               << metric << "_count " << hist.count() << "\n";
            break;
          }
        }
        ++position;
    });
    return os.str();
}

void
StatExposition::writeFile(const std::string &text)
{
    if (config_.path.empty())
        return;
    const std::size_t index = snapshots_.size();
    const std::string tmp = config_.path + ".tmp";
    {
        std::ofstream out(tmp);
        if (!out)
            fatal("cannot write exposition snapshot ", tmp);
        out << text;
    }
    // Atomic publish: a scraper polling config_.path sees either the
    // previous snapshot or this one, never a torn write.
    if (std::rename(tmp.c_str(), config_.path.c_str()) != 0)
        fatal("cannot rename ", tmp, " onto ", config_.path);
    if (config_.series) {
        const std::string versioned =
            config_.path + "." + std::to_string(index);
        std::ofstream out(versioned);
        if (!out)
            fatal("cannot write exposition snapshot ", versioned);
        out << text;
    }
}

} // namespace relief

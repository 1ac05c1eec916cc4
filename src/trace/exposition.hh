/**
 * @file
 * Live telemetry: periodic Prometheus text exposition of the stat
 * registry.
 *
 * A StatExposition wakes up every `period` sim-ticks, renders every
 * registered stat in Prometheus text exposition format, and publishes
 * the snapshot atomically (write to `<path>.tmp`, then rename onto
 * `<path>`), so an external scraper polling the file never observes a
 * torn write. With `series` enabled each snapshot is also kept as
 * `<path>.<index>` so a run's full history can be inspected (CI uses
 * this to check counter monotonicity across snapshots).
 *
 * Each snapshot carries, besides the cumulative registry values:
 *  - `relief_exposition_snapshots` / `relief_exposition_sim_time_ms`
 *    metadata,
 *  - one delta-window rate gauge `<counter>_per_sec` per counter —
 *    (current - previous snapshot) / window seconds — so rates are
 *    readable without a scraper-side derivative,
 *  - histogram summaries (`_count`, `_sum`, and p50/p95/p99
 *    quantiles).
 *
 * The publisher re-arms like every PeriodicService
 * (sim/periodic_service.hh).
 *
 * Rendered snapshots are retained in memory (snapshots()) so tests and
 * the report path can inspect them without touching the filesystem;
 * pass an empty path to disable file publishing entirely.
 */

#ifndef RELIEF_TRACE_EXPOSITION_HH
#define RELIEF_TRACE_EXPOSITION_HH

#include <string>
#include <vector>

#include "sim/periodic_service.hh"
#include "stats/registry.hh"

namespace relief
{

struct ExpositionConfig
{
    /** Snapshot file path; empty keeps snapshots in memory only. */
    std::string path;
    /** Snapshot period in ticks (must be positive). */
    Tick period = fromMs(5.0);
    /** Metric-name prefix (sanitized stat names are appended). */
    std::string prefix = "relief";
    /** Also write every snapshot as `<path>.<index>`. */
    bool series = false;
};

class StatExposition : public PeriodicService
{
  public:
    /**
     * @param sim    Owning simulation context.
     * @param stats  Registry to render (must outlive the publisher).
     * @param config Snapshot knobs.
     */
    StatExposition(Simulator &sim, const StatRegistry &stats,
                   ExpositionConfig config);

    /** Take one extra snapshot at the current tick (end-of-run state;
     *  also published to the file). */
    void snapshotNow();

    std::size_t numSnapshots() const { return snapshots_.size(); }

    /** Every rendered snapshot, in publication order. */
    const std::vector<std::string> &snapshots() const
    {
        return snapshots_;
    }

    const ExpositionConfig &config() const { return config_; }

    /**
     * Sanitize one dotted stat name into a Prometheus metric name:
     * every character outside [a-zA-Z0-9_:] becomes '_'
     * ("serve.realtime.miss_rate" -> "serve_realtime_miss_rate").
     */
    static std::string sanitizeName(const std::string &name);

  private:
    void onTick() override { publish(); }
    void publish();
    std::string render();
    void writeFile(const std::string &text);

    const StatRegistry &stats_;
    ExpositionConfig config_;
    std::vector<std::string> snapshots_;
    /** Previous snapshot's counter values (delta-window rates), by
     *  stat position in binding order. */
    std::vector<double> prevValues_;
    Tick prevTick_ = 0;
};

} // namespace relief

#endif // RELIEF_TRACE_EXPOSITION_HH

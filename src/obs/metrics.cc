#include "obs/metrics.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"

namespace ditto::obs {

namespace {

/** Round-trippable double rendering (%.17g, "nan"-free for prom). */
std::string
formatDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

std::uint64_t
MetricsRegistry::Series::counterValue() const
{
    if (counter)
        return counter->value();
    if (counterFn)
        return counterFn();
    return 0;
}

double
MetricsRegistry::Series::gaugeValue() const
{
    if (gauge)
        return gauge->value();
    if (gaugeFn)
        return gaugeFn();
    return 0.0;
}

const stats::LatencyHistogram *
MetricsRegistry::Series::histogram() const
{
    if (timer)
        return &timer->histogram();
    return hist;
}

std::string
MetricsRegistry::renderLabels(const Labels &labels)
{
    if (labels.empty())
        return "";
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : labels) {
        if (!first)
            out += ",";
        first = false;
        out += k;
        out += "=";
        appendJsonString(out, v);  // same escaping rules as prom
    }
    out += "}";
    return out;
}

MetricsRegistry::Series &
MetricsRegistry::upsert(const std::string &name, const Labels &labels,
                        const std::string &help, Kind kind)
{
    const Key key{name, renderLabels(labels)};
    auto [it, inserted] = series_.try_emplace(key);
    Series &s = it->second;
    if (!inserted && s.kind != kind)
        throw std::logic_error("metrics: series " + name + key.second +
                               " re-registered with another kind");
    s.kind = kind;
    if (!help.empty())
        s.help = help;
    return s;
}

Counter &
MetricsRegistry::counter(const std::string &name, Labels labels,
                         const std::string &help)
{
    Series &s = upsert(name, labels, help, Kind::Counter);
    if (!s.counter) {
        if (s.counterFn)
            throw std::logic_error("metrics: " + name +
                                   " is a pull counter");
        s.counter = std::make_unique<Counter>();
    }
    return *s.counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name, Labels labels,
                       const std::string &help)
{
    Series &s = upsert(name, labels, help, Kind::Gauge);
    if (!s.gauge) {
        if (s.gaugeFn)
            throw std::logic_error("metrics: " + name +
                                   " is a pull gauge");
        s.gauge = std::make_unique<Gauge>();
    }
    return *s.gauge;
}

Timer &
MetricsRegistry::timer(const std::string &name, Labels labels,
                       const std::string &help)
{
    Series &s = upsert(name, labels, help, Kind::Summary);
    if (!s.timer) {
        if (s.hist)
            throw std::logic_error("metrics: " + name +
                                   " is a pull histogram");
        s.timer = std::make_unique<Timer>();
    }
    return *s.timer;
}

void
MetricsRegistry::addCounterFn(const std::string &name, Labels labels,
                              const std::string &help,
                              std::function<std::uint64_t()> fn)
{
    Series &s = upsert(name, labels, help, Kind::Counter);
    s.counter.reset();
    s.counterFn = std::move(fn);
}

void
MetricsRegistry::addGaugeFn(const std::string &name, Labels labels,
                            const std::string &help,
                            std::function<double()> fn)
{
    Series &s = upsert(name, labels, help, Kind::Gauge);
    s.gauge.reset();
    s.gaugeFn = std::move(fn);
}

void
MetricsRegistry::addHistogram(const std::string &name, Labels labels,
                              const std::string &help,
                              const stats::LatencyHistogram *hist)
{
    Series &s = upsert(name, labels, help, Kind::Summary);
    s.timer.reset();
    s.hist = hist;
}

std::uint64_t
MetricsRegistry::readCounter(const std::string &name,
                             const Labels &labels, bool *found) const
{
    const auto it = series_.find(Key{name, renderLabels(labels)});
    const bool ok =
        it != series_.end() && it->second.kind == Kind::Counter;
    if (found)
        *found = ok;
    return ok ? it->second.counterValue() : 0;
}

double
MetricsRegistry::readGauge(const std::string &name,
                           const Labels &labels, bool *found) const
{
    const auto it = series_.find(Key{name, renderLabels(labels)});
    const bool ok =
        it != series_.end() && it->second.kind == Kind::Gauge;
    if (found)
        *found = ok;
    return ok ? it->second.gaugeValue() : 0.0;
}

void
MetricsRegistry::writePrometheus(std::ostream &os) const
{
    const std::string *lastName = nullptr;
    for (const auto &[key, s] : series_) {
        const auto &[name, labels] = key;
        if (!lastName || *lastName != name) {
            if (!s.help.empty())
                os << "# HELP " << name << " " << s.help << "\n";
            os << "# TYPE " << name << " ";
            switch (s.kind) {
              case Kind::Counter: os << "counter"; break;
              case Kind::Gauge: os << "gauge"; break;
              case Kind::Summary: os << "summary"; break;
            }
            os << "\n";
            lastName = &name;
        }
        switch (s.kind) {
          case Kind::Counter:
            os << name << labels << " " << s.counterValue() << "\n";
            break;
          case Kind::Gauge:
            os << name << labels << " "
               << formatDouble(s.gaugeValue()) << "\n";
            break;
          case Kind::Summary: {
            const stats::LatencyHistogram *h = s.histogram();
            if (!h)
                break;
            // Splice the quantile label into the label set.
            const std::string open = labels.empty()
                ? "{"
                : labels.substr(0, labels.size() - 1) + ",";
            for (const auto &[q, qs] :
                 {std::pair<double, const char *>{0.5, "0.5"},
                  {0.95, "0.95"},
                  {0.99, "0.99"}}) {
                os << name << open << "quantile=\"" << qs << "\"} "
                   << h->percentile(q) << "\n";
            }
            os << name << "_sum" << labels << " "
               << formatDouble(h->mean() *
                               static_cast<double>(h->count()))
               << "\n";
            os << name << "_count" << labels << " " << h->count()
               << "\n";
            break;
          }
        }
    }
}

std::string
MetricsRegistry::prometheusText() const
{
    std::ostringstream ss;
    writePrometheus(ss);
    return ss.str();
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    std::string out;
    out += "{";
    for (int pass = 0; pass < 3; ++pass) {
        const Kind want = pass == 0
            ? Kind::Counter
            : pass == 1 ? Kind::Gauge : Kind::Summary;
        if (pass > 0)
            out += ",";
        out += pass == 0 ? "\"counters\":{"
                         : pass == 1 ? "\"gauges\":{"
                                     : "\"summaries\":{";
        bool first = true;
        for (const auto &[key, s] : series_) {
            if (s.kind != want)
                continue;
            if (!first)
                out += ",";
            first = false;
            appendJsonString(out, key.first + key.second);
            out += ":";
            switch (s.kind) {
              case Kind::Counter:
                out += std::to_string(s.counterValue());
                break;
              case Kind::Gauge:
                out += formatDouble(s.gaugeValue());
                break;
              case Kind::Summary: {
                const stats::LatencyHistogram *h = s.histogram();
                out += "{\"count\":";
                out += std::to_string(h ? h->count() : 0);
                out += ",\"sum\":";
                out += formatDouble(
                    h ? h->mean() * static_cast<double>(h->count())
                      : 0.0);
                out += ",\"min\":";
                out += std::to_string(h ? h->minValue() : 0);
                out += ",\"max\":";
                out += std::to_string(h ? h->maxValue() : 0);
                out += ",\"p50\":";
                out += std::to_string(h ? h->percentile(0.5) : 0);
                out += ",\"p95\":";
                out += std::to_string(h ? h->percentile(0.95) : 0);
                out += ",\"p99\":";
                out += std::to_string(h ? h->percentile(0.99) : 0);
                out += "}";
                break;
              }
            }
        }
        out += "}";
    }
    out += "}";
    os << out;
}

std::string
MetricsRegistry::jsonText() const
{
    std::ostringstream ss;
    writeJson(ss);
    return ss.str();
}

} // namespace ditto::obs

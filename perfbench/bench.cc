#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "service/json.hh"

namespace vnbench
{

// ---------------------------------------------------------------- spans

namespace
{

thread_local std::vector<uint64_t> t_open; //!< open span ids, innermost last

uint64_t
fnvBytes(uint64_t h, const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

uint64_t
mixDouble(uint64_t h, double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return fnvBytes(h, &bits, sizeof(bits));
}

uint64_t
mixInt(uint64_t h, int64_t v)
{
    return fnvBytes(h, &v, sizeof(v));
}

template <size_t N>
uint64_t
mixArray(uint64_t h, const std::array<double, N> &values)
{
    for (double v : values)
        h = mixDouble(h, v);
    return h;
}

} // namespace

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

uint64_t
Tracer::open(int64_t *start_ns)
{
    *start_ns = nowNs();
    return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void
Tracer::close(uint64_t id, uint64_t parent, uint64_t request,
              const std::string &name, int64_t start_ns)
{
    Span span{id, parent, request, name, start_ns, nowNs()};
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void
Tracer::writeJsonl(const std::string &path) const
{
    std::ofstream out(path);
    for (const Span &s : spans()) {
        vn::service::Json j = vn::service::Json::object();
        j.set("id", vn::service::Json::number(static_cast<double>(s.id)));
        j.set("parent",
              vn::service::Json::number(static_cast<double>(s.parent)));
        j.set("request",
              vn::service::Json::number(static_cast<double>(s.request)));
        j.set("name", vn::service::Json::str(s.name));
        j.set("start_ns",
              vn::service::Json::number(static_cast<double>(s.start_ns)));
        j.set("end_ns",
              vn::service::Json::number(static_cast<double>(s.end_ns)));
        out << j.dump() << '\n';
    }
}

double
Tracer::totalMs(const std::string &name) const
{
    double total = 0.0;
    for (const Span &s : spans())
        if (s.name == name)
            total += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    return total;
}

std::map<std::string, Tracer::Summary>
Tracer::summarize() const
{
    std::vector<Span> all = spans();
    std::multimap<uint64_t, const Span *> children;
    for (const Span &s : all)
        if (s.parent != 0)
            children.emplace(s.parent, &s);
    std::map<std::string, Summary> out;
    for (const Span &s : all) {
        std::vector<std::pair<int64_t, int64_t>> covered;
        auto [lo, hi] = children.equal_range(s.id);
        for (auto it = lo; it != hi; ++it)
            covered.emplace_back(std::max(it->second->start_ns, s.start_ns),
                                 std::min(it->second->end_ns, s.end_ns));
        std::sort(covered.begin(), covered.end());
        int64_t busy = 0, cursor = s.start_ns;
        for (auto [a, b] : covered) {
            a = std::max(a, cursor);
            if (b > a) {
                busy += b - a;
                cursor = b;
            }
        }
        Summary &sum = out[s.name];
        ++sum.count;
        sum.total_ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
        sum.self_ms += static_cast<double>(s.end_ns - s.start_ns - busy) * 1e-6;
    }
    return out;
}

Scope::Scope(const char *name, uint64_t request) : request_(request)
{
    Tracer &tracer = Tracer::instance();
    if (!tracer.enabled())
        return;
    name_ = name;
    parent_ = t_open.empty() ? 0 : t_open.back();
    id_ = tracer.open(&start_ns_);
    t_open.push_back(id_);
}

Scope::~Scope()
{
    if (id_ == 0)
        return;
    t_open.pop_back();
    Tracer::instance().close(id_, parent_, request_, name_, start_ns_);
}

// -------------------------------------------------------------- digests

uint64_t
digestOf(const vn::FreqSweepPoint &p)
{
    uint64_t h = mixDouble(kFnvOffset, p.freq_hz);
    h = mixArray(h, p.p2p);
    h = mixArray(h, p.v_min);
    h = mixDouble(h, p.max_p2p);
    return mixDouble(h, p.min_v);
}

uint64_t
digestOf(const vn::MappingResult &r)
{
    uint64_t h = kFnvOffset;
    for (vn::WorkloadClass c : r.mapping)
        h = mixInt(h, static_cast<int64_t>(c));
    h = mixArray(h, r.p2p);
    h = mixArray(h, r.v_min);
    h = mixDouble(h, r.max_p2p);
    h = mixDouble(h, r.delta_i_fraction);
    h = mixInt(h, r.n_max);
    return mixInt(h, r.n_medium);
}

uint64_t
digestOf(const vn::MarginPoint &p)
{
    uint64_t h = mixDouble(kFnvOffset, p.freq_hz);
    h = mixInt(h, p.events);
    h = mixDouble(h, p.bias_at_failure);
    return mixInt(h, p.failed ? 1 : 0);
}

uint64_t
digestOf(const vn::DroopTrace &t)
{
    uint64_t h = mixDouble(kFnvOffset, t.t0);
    h = mixDouble(h, t.dt);
    h = mixDouble(h, t.v_min);
    h = mixDouble(h, t.v_max);
    h = mixInt(h, static_cast<int64_t>(t.v.size()));
    for (double v : t.v)
        h = mixDouble(h, v);
    return h;
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ------------------------------------------------------------ statistics

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = (p / 100.0) * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(rank));
    size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

// ---------------------------------------------------------------- report

void
Report::set(const std::string &name, double value, const std::string &unit,
            size_t samples, const std::string &note)
{
    metrics[name] = Metric{value, unit, samples, note};
}

void
Report::fail(const std::string &why)
{
    correct = false;
    if (problems.size() < 20)
        problems.push_back(why);
}

// ---------------------------------------------------------------- golden

bool
Golden::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::stringstream text;
    text << in.rdbuf();
    vn::service::Json doc = vn::service::Json::parse(text.str());
    const vn::service::Json &items = doc.at("digests");
    for (const auto &[key, value] : items.members())
        digests_[key] = value.asString();
    return true;
}

std::string
Golden::find(const std::string &key) const
{
    auto it = digests_.find(key);
    return it == digests_.end() ? std::string() : it->second;
}

void
Golden::put(const std::string &key, uint64_t digest)
{
    digests_[key] = hex64(digest);
}

void
Golden::save(const std::string &path) const
{
    std::ofstream out(path);
    out << "{\n  \"about\": \"FNV-1a digests of the decoded result values "
           "(double bit patterns) of every benchmark pool item\",\n"
        << "  \"digests\": {\n";
    size_t i = 0;
    for (const auto &[key, digest] : digests_) {
        out << "    \"" << key << "\": \"" << digest << "\""
            << (++i < digests_.size() ? ",\n" : "\n");
    }
    out << "  }\n}\n";
}

bool
checkGolden(const Golden &golden, const std::string &key, uint64_t digest,
            Report &report)
{
    std::string want = golden.find(key);
    if (want.empty()) {
        report.fail("no golden digest for " + key);
        return false;
    }
    if (want != hex64(digest)) {
        report.fail("digest mismatch for " + key + ": got " + hex64(digest) +
                    ", golden " + want);
        return false;
    }
    return true;
}

} // namespace vnbench

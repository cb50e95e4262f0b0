/**
 * @file
 * vnoise_router: the consistent-hash fleet router, as a binary.
 *
 * Forwards framed requests to a fleet of vnoised backends (see
 * docs/serving.md, "Fleet"). Backends are given as a comma-separated
 * list of ports or NAME=PORT pairs; an optional NAME=PORT:HTTPPORT
 * form adds the backend's gateway port so the health probe honors its
 * drain-aware /readyz.
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "router/router.hh"
#include "util/logging.hh"
#include "vnoise_version.hh"

namespace
{

void
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: vnoise_router --backends LIST [--port N] "
        "[--http-port N]\n"
        "                     [--vnodes N] [--ring-seed N]\n"
        "                     [--cache-dir P] "
        "[--health-period-ms N]\n"
        "                     [--no-hedge] [--version] [--help]\n"
        "Routes framed requests across a vnoised fleet on 127.0.0.1\n"
        "(default port %d; --http-port default %d serves /metrics,\n"
        "/healthz, /readyz; negative disables).\n"
        "--backends is comma-separated: PORT, NAME=PORT, or\n"
        "NAME=PORT:HTTPPORT (the last form makes the health probe\n"
        "consult the backend's drain-aware /readyz).\n"
        "SIGINT/SIGTERM drains in-flight forwards and exits; a second\n"
        "SIGINT/SIGTERM forces immediate exit (status 130).\n",
        vn::service::kDefaultRouterPort,
        vn::service::kDefaultRouterHttpPort);
}

/** Parse one --backends element; fatal() on nonsense. */
vn::router::BackendConfig
parseBackend(const std::string &text)
{
    vn::router::BackendConfig backend;
    std::string rest = text;
    size_t eq = rest.find('=');
    if (eq != std::string::npos) {
        backend.name = rest.substr(0, eq);
        rest = rest.substr(eq + 1);
    }
    size_t colon = rest.find(':');
    std::string port = colon == std::string::npos
                           ? rest
                           : rest.substr(0, colon);
    try {
        backend.port = std::stoi(port);
        if (colon != std::string::npos)
            backend.http_port = std::stoi(rest.substr(colon + 1));
    } catch (const std::exception &) {
        vn::fatal("vnoise_router: bad backend '", text,
                  "' (want PORT, NAME=PORT, or NAME=PORT:HTTPPORT)");
    }
    return backend;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> flags;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (key == "--help" || key == "-h") {
            usage(stdout);
            return 0;
        }
        if (key == "--version") {
            std::printf("vnoise_router %s (protocol %d)\n", VN_VERSION,
                        vn::service::kProtocolVersion);
            return 0;
        }
        if (key.rfind("--", 0) != 0) {
            std::fprintf(stderr,
                         "vnoise_router: unexpected argument '%s'\n",
                         key.c_str());
            usage(stderr);
            return 2;
        }
        key = key.substr(2);
        if (i + 1 < argc &&
            (argv[i + 1][0] != '-' ||
             (argv[i + 1][1] >= '0' && argv[i + 1][1] <= '9'))) {
            flags[key] = argv[i + 1];
            ++i;
        } else {
            flags[key] = "1";
        }
    }
    for (const auto &[key, value] : flags) {
        static const char *known[] = {"backends", "port", "http-port",
                                      "vnodes", "ring-seed",
                                      "cache-dir", "health-period-ms",
                                      "no-hedge"};
        bool ok = false;
        for (const char *k : known)
            ok = ok || key == k;
        if (!ok) {
            std::fprintf(stderr,
                         "vnoise_router: unknown option '--%s'\n",
                         key.c_str());
            usage(stderr);
            return 2;
        }
    }
    if (!flags.count("backends")) {
        std::fprintf(stderr, "vnoise_router: --backends is required\n");
        usage(stderr);
        return 2;
    }
    auto number = [&flags](const std::string &key, double fallback) {
        auto it = flags.find(key);
        if (it == flags.end())
            return fallback;
        try {
            return std::stod(it->second);
        } catch (const std::exception &) {
            vn::fatal("vnoise_router: --", key,
                      " expects a number, got '", it->second, "'");
        }
        return fallback;
    };

    vn::router::RouterConfig config;
    config.port = static_cast<int>(
        number("port", vn::service::kDefaultRouterPort));
    config.http_port = static_cast<int>(
        number("http-port", vn::service::kDefaultRouterHttpPort));
    config.ring.vnodes = static_cast<int>(number("vnodes", 64));
    config.ring.seed =
        static_cast<uint64_t>(number("ring-seed", 1));
    config.health_period_ms = number("health-period-ms", 200.0);
    config.hedge_on_overload = !flags.count("no-hedge");
    if (flags.count("cache-dir"))
        config.cache_dir = flags["cache-dir"];

    std::string list = flags["backends"];
    size_t start = 0;
    while (start <= list.size()) {
        size_t comma = list.find(',', start);
        std::string item =
            list.substr(start, comma == std::string::npos
                                   ? std::string::npos
                                   : comma - start);
        if (!item.empty())
            config.backends.push_back(parseBackend(item));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }

    vn::router::Router router(std::move(config));
    router.start();
    router.installSignalHandlers();
    std::printf("vnoise_router %s listening on 127.0.0.1:%d "
                "(%zu backends, %zu healthy)\n",
                VN_VERSION, router.port(), router.ring().size(),
                router.healthyBackends());
    for (const std::string &name : router.ring().members())
        std::printf("vnoise_router: %s owns %.1f%% of the ring\n",
                    name.c_str(), 100.0 * router.ring().shareOf(name));
    if (router.httpPort() >= 0)
        std::printf("vnoise_router: HTTP gateway on 127.0.0.1:%d "
                    "(/metrics, /healthz, /readyz)\n",
                    router.httpPort());
    std::fflush(stdout);
    router.wait();

    vn::router::RouterCounters c = router.counters();
    std::printf("vnoise_router: drained after %llu frames "
                "(%llu forwarded, %llu rebalanced, %llu hedged, "
                "%llu cache hits)\n",
                static_cast<unsigned long long>(c.frames),
                static_cast<unsigned long long>(c.forwarded),
                static_cast<unsigned long long>(c.rebalanced),
                static_cast<unsigned long long>(c.hedged),
                static_cast<unsigned long long>(c.cache_hits));
    return 0;
}

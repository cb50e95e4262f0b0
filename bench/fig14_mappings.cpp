/**
 * @file
 * Fig. 14 reproduction: two mappings of three worst-case dI/dt
 * stressmarks. Best case spreads them across the layout clusters
 * (cores 1, 4, 5); worst case packs one cluster (cores 0, 2, 4).
 */

#include <algorithm>

#include "common.hh"

namespace
{

void
printChip(const vn::MappingResult &r, const char *title)
{
    using vn::WorkloadClass;
    std::printf("%s\n", title);
    auto cell = [&](int core) {
        const char *w =
            r.mapping[core] == WorkloadClass::Max ? "dI/dt" : "     ";
        std::printf("| c%d %s %5.1f%% |", core, w, r.p2p[core]);
    };
    // Physical layout: cores 0/2/4 across the top, 1/3/5 bottom.
    for (int c : {0, 2, 4})
        cell(c);
    std::printf("\n|        L3 (damping)        ...        |\n");
    for (int c : {1, 3, 5})
        cell(c);
    std::printf("\nworst-case noise: %.1f %%p2p on core %d\n\n",
                r.max_p2p,
                static_cast<int>(std::max_element(r.p2p.begin(),
                                                  r.p2p.end()) -
                                 r.p2p.begin()));
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vn;
    vnbench::banner("Figure 14", "two mappings of 3 worst-case dI/dt "
                                 "stressmarks");

    auto ctx = vnbench::defaultContext(argc, argv);
    MappingStudy study(ctx, 2.4e6);

    auto place = [](std::initializer_list<int> cores) {
        Mapping m{};
        m.fill(WorkloadClass::Idle);
        for (int c : cores)
            m[c] = WorkloadClass::Max;
        return m;
    };

    // Both mappings ride as lanes of one campaign batch job (cached,
    // bit-identical to two one-lane runs).
    std::array<Mapping, 2> pair = {place({1, 4, 5}), place({0, 2, 4})};
    auto results = study.runMany(pair);
    auto best = results[0];
    auto worst = results[1];

    printChip(best, "--- (a) best case: stressmarks on cores 1, 4, 5 "
                    "(across clusters) ---");
    printChip(worst, "--- (b) worst case: stressmarks on cores 0, 2, 4 "
                     "(one cluster) ---");

    std::printf("packing one cluster raises worst-case noise by %.1f "
                "%%p2p points (paper: 24.6 -> 28.2)\n",
                worst.max_p2p - best.max_p2p);
    std::printf("core 2 suffers most in (b): it sits between two other "
                "noisy cores, as in the paper\n");
    vnbench::printCampaignSummary();
    return 0;
}

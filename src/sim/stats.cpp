#include "sim/stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace capstan::sim {

std::string
stallClassName(StallClass c)
{
    switch (c) {
      case StallClass::Active:
        return "Active";
      case StallClass::Scan:
        return "Scan";
      case StallClass::LoadStore:
        return "Load/Store";
      case StallClass::VectorLength:
        return "Vector Length";
      case StallClass::Imbalance:
        return "Imbalance";
      case StallClass::Network:
        return "Network";
      case StallClass::Sram:
        return "SRAM";
      case StallClass::Dram:
      default:
        return "DRAM";
    }
}

double
StallBreakdown::total() const
{
    double t = 0.0;
    for (double v : lane_cycles)
        t += v;
    return t;
}

double
StallBreakdown::percent(StallClass c) const
{
    double t = total();
    if (t <= 0.0)
        return 0.0;
    return 100.0 * (*this)[c] / t;
}

StallBreakdown
layerBreakdown(const StallBreakdown &synthetic, double cycles_ideal,
               double cycles_net, double cycles_sram, double cycles_dram,
               double lanes_per_cycle)
{
    StallBreakdown out = synthetic;
    out[StallClass::Network] =
        std::max(0.0, (cycles_net - cycles_ideal) * lanes_per_cycle);
    out[StallClass::Sram] =
        std::max(0.0, (cycles_sram - cycles_net) * lanes_per_cycle);
    out[StallClass::Dram] =
        std::max(0.0, (cycles_dram - cycles_sram) * lanes_per_cycle);
    return out;
}

double
loadStoreLaneCycles(const StallBreakdown &synthetic,
                    double total_lane_cycles)
{
    double accounted = synthetic[StallClass::Active] +
                       synthetic[StallClass::Scan] +
                       synthetic[StallClass::VectorLength] +
                       synthetic[StallClass::Imbalance];
    if (accounted > total_lane_cycles)
        throw std::runtime_error(
            "stall breakdown over-counts the ideal run: " +
            std::to_string(accounted) + " accounted of " +
            std::to_string(total_lane_cycles) + " lane-cycles");
    return total_lane_cycles - accounted;
}

} // namespace capstan::sim

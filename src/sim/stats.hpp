/**
 * @file
 * Stall accounting for the execution-time breakdown (Fig. 7).
 *
 * The paper decomposes lane-cycles into eight classes. The first five are
 * *synthetic*: computable assuming zero-latency, infinite-bandwidth
 * memory and a perfect network. The last three are *simulated*: layering
 * in the on-chip network, the allocated SRAM, and the DRAM model one at a
 * time and attributing the added cycles to each.
 */

#pragma once

#include <array>
#include <string>

namespace capstan::sim {

/** The eight execution-time classes of Fig. 7, in plot order. */
enum class StallClass : int {
    Active = 0,    //!< Lanes doing useful work.
    Scan,          //!< Scanner processing all-zero vectors.
    LoadStore,     //!< Waiting on DRAM transfers (ideal memory).
    VectorLength,  //!< Lanes idle because loops are shorter than 16.
    Imbalance,     //!< Tiles idle waiting for the slowest tile.
    Network,       //!< On-chip pipelining and network effects.
    Sram,          //!< SpMU bank conflicts.
    Dram,          //!< Real DRAM model vs. ideal.
};

constexpr int kStallClasses = 8;

/** Display name for a stall class. */
std::string stallClassName(StallClass c);

/** Lane-cycle totals per class; normalizes to percentages for plotting. */
struct StallBreakdown
{
    std::array<double, kStallClasses> lane_cycles{};

    double &operator[](StallClass c)
    {
        return lane_cycles[static_cast<int>(c)];
    }
    double operator[](StallClass c) const
    {
        return lane_cycles[static_cast<int>(c)];
    }

    double total() const;

    /** Percentage of total time in class @p c. */
    double percent(StallClass c) const;
};

/**
 * Compose a breakdown from layered simulation results.
 *
 * @param synthetic Breakdown with the five synthetic classes filled in.
 * @param cycles_ideal    Total cycles with ideal net + SRAM + DRAM.
 * @param cycles_net      ... with the real network added.
 * @param cycles_sram     ... with the real SpMU added.
 * @param cycles_dram     ... with the real DRAM added (full model).
 * @param lanes_per_cycle Lane-cycles represented by one cycle.
 */
StallBreakdown layerBreakdown(const StallBreakdown &synthetic,
                              double cycles_ideal, double cycles_net,
                              double cycles_sram, double cycles_dram,
                              double lanes_per_cycle);

/**
 * Load/Store lane-cycles of an ideal run: @p total_lane_cycles minus
 * the Active, Scan, Vector Length and Imbalance classes of
 * @p synthetic, an exact identity. Throws std::runtime_error when
 * those classes add up to more than the total, an over-count that a
 * clamp at zero would hide.
 */
double loadStoreLaneCycles(const StallBreakdown &synthetic,
                           double total_lane_cycles);

} // namespace capstan::sim


#include "baselines/asic_models.hpp"

#include <algorithm>
#include <cmath>

namespace capstan::baselines {

double
eieSeconds(Index64 nnz, double vec_density)
{
    // 64 PEs, 800 MHz, one weight non-zero per PE per cycle; only the
    // columns matching non-zero activations are touched. Weights live
    // on-chip (the decisive advantage the paper concedes to EIE).
    constexpr double pes = 64.0;
    constexpr double clock = 0.8e9;
    double work = static_cast<double>(nnz) * vec_density;
    // Load imbalance across PEs costs ~20% on real layers.
    double cycles = work / pes / 0.8;
    return cycles / clock;
}

double
scnnSeconds(const workloads::ConvLayer &layer)
{
    // 64 PEs x 16 multipliers at 1 GHz, processing 4 activations x 4
    // weights per cycle per PE in its Cartesian-product dataflow.
    constexpr double pes = 64.0;
    constexpr double mults_per_pe = 16.0;
    constexpr double clock = 1e9;
    double act_nnz = static_cast<double>(layer.activations.nnz());
    double w_nnz = static_cast<double>(layer.kernel.nnz());
    double macs = act_nnz * w_nnz /
                  std::max<double>(1.0, layer.in_channels);
    // Utilization: shallow layers cannot fill 4 weights/4 activations
    // (the paper notes 75% idle on few-activation layers); deep, dense
    // layers approach full rate. Model utilization by how many weight
    // non-zeros each input channel offers relative to the 4x4 front.
    double w_per_ic = w_nnz / std::max<Index>(1, layer.in_channels);
    double util = std::clamp(w_per_ic / 64.0, 0.25, 0.95);
    // Output tiling forces multiple passes on large output volumes
    // (SCNN's accumulator banks hold one tile at a time).
    double out_words = static_cast<double>(layer.out_channels) *
                       layer.dim * layer.dim;
    double passes = std::max(1.0, out_words / (64.0 * 1024.0));
    double cycles = macs / (pes * mults_per_pe * util) * passes;
    return cycles / clock;
}

double
graphicionadoSeconds(double edges_processed, int iterations)
{
    // 8 streams at 1 GHz = 8 GE/s peak; vertex state in eDRAM, edge
    // lists stream from DRAM (~68 GB/s / 8 B per edge). Published
    // sustained rates land near 2-3 GE/s; bandwidth binds first here.
    constexpr double clock = 1e9;
    constexpr double streams = 8.0;
    constexpr double dram_bw = 68e9;
    double peak_rate = streams * clock;
    double bw_rate = dram_bw / 8.0;
    double rate = std::min(peak_rate, bw_rate) * 0.45; // pipeline gaps
    double barrier = 2e-6; // per-iteration drain
    return edges_processed / rate + iterations * barrier;
}

double
matraptorSeconds(double mults)
{
    // Highest demonstrated throughput: 10 GOP/s, counting one multiply
    // and one add per non-zero product.
    constexpr double gops = 10e9;
    return 2.0 * mults / gops;
}

} // namespace capstan::baselines

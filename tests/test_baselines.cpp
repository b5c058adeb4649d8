/**
 * @file
 * Tests for the CPU/GPU/ASIC baseline models (Tables 12 and 13).
 */

#include <gtest/gtest.h>

#include "baselines/asic_models.hpp"
#include "baselines/cpu_gpu.hpp"
#include "workloads/datasets.hpp"

using namespace capstan;
using namespace capstan::baselines;
using namespace capstan::workloads;

namespace {

sparse::MatrixStore
medium()
{
    return loadMatrixDataset("Trefethen_20000", 0.25).matrix;
}

} // namespace

TEST(CpuGpuModel, GpuBeatsCpuOnStreamingKernels)
{
    auto m = medium();
    auto p = profileSpmvCsr(m);
    EXPECT_LT(gpuSeconds(p), cpuSeconds(p));
}

TEST(CpuGpuModel, AtomicsPunishBothMachines)
{
    auto m = medium();
    double csr_cpu = cpuSeconds(profileSpmvCsr(m));
    double coo_cpu = cpuSeconds(profileSpmvCoo(m));
    double csr_gpu = gpuSeconds(profileSpmvCsr(m));
    double coo_gpu = gpuSeconds(profileSpmvCoo(m));
    // Table 12: COO is ~9x worse than CSR on the CPU, ~19x on the GPU.
    EXPECT_GT(coo_cpu, 3 * csr_cpu);
    EXPECT_GT(coo_gpu, 3 * csr_gpu);
}

TEST(CpuGpuModel, SerialMergeDominatesMatAdd)
{
    auto a = loadMatrixDataset("ckt11752_dc_1", 0.25).matrix;
    double add = cpuSeconds(profileMatAdd(a, a));
    double spmv = cpuSeconds(profileSpmvCsr(a));
    // Table 12: M+M is the CPU's worst column by far (2254 vs 68).
    EXPECT_GT(add, 5 * spmv);
}

TEST(CpuGpuModel, LaunchOverheadHurtsShortLevels)
{
    auto g = loadMatrixDataset("usroads-48", 0.1).matrix;
    // Road networks: many levels, tiny frontiers; barriers dominate.
    auto deep = profileBfs(g, 300);
    auto shallow = profileBfs(g, 10);
    EXPECT_GT(gpuSeconds(deep), gpuSeconds(shallow));
    EXPECT_GT(cpuSeconds(deep), 300 * 15e-6 * 0.9);
}

TEST(CpuGpuModel, UnfusedBicgstabPaysPerKernel)
{
    auto m = medium();
    double solver = cpuSeconds(profileBicgstab(m, 1));
    double two_spmv = 2 * cpuSeconds(profileSpmvCsr(m));
    // The paper reports up to 3x over SpMV alone from kernel overhead
    // and intermediate round-trips.
    EXPECT_GT(solver, 1.2 * two_spmv);
    EXPECT_LT(solver, 6 * two_spmv);
}

TEST(CpuGpuModel, ProfileAccumulationSums)
{
    KernelProfile a;
    a.stream_bytes = 100;
    a.kernel_launches = 2;
    KernelProfile b;
    b.stream_bytes = 50;
    b.sync_barriers = 3;
    a += b;
    EXPECT_DOUBLE_EQ(a.stream_bytes, 150);
    EXPECT_EQ(a.kernel_launches, 3);
    EXPECT_EQ(a.sync_barriers, 3);
}

TEST(AsicModels, EieIsFastWhenWeightsFitOnChip)
{
    auto m = loadMatrixDataset("ckt11752_dc_1", 0.25).matrix;
    double eie = eieSeconds(m.nnz(), 0.3);
    // 64 PEs at 800 MHz on ~100k effective non-zeros: microseconds.
    EXPECT_GT(eie, 0.0);
    EXPECT_LT(eie, 1e-3);
    // Denser activations mean proportionally more work.
    EXPECT_NEAR(eieSeconds(m.nnz(), 0.6) / eie, 2.0, 0.01);
}

TEST(AsicModels, ScnnUtilizationPenalizesShallowLayers)
{
    auto shallow = convLayer(56, 1, 16, 16, 0.44, 0.3, 1);
    auto deep = convLayer(14, 3, 256, 256, 0.83, 0.3, 2);
    double s_time = scnnSeconds(shallow);
    double d_time = scnnSeconds(deep);
    EXPECT_GT(s_time, 0.0);
    EXPECT_GT(d_time, 0.0);
    // The deep layer does far more MACs; time must reflect that even
    // with its better utilization.
    EXPECT_GT(d_time, s_time);
}

TEST(AsicModels, GraphicionadoIsBandwidthBound)
{
    double one_pass = graphicionadoSeconds(1e7, 1);
    double ten_pass = graphicionadoSeconds(1e8, 10);
    EXPECT_NEAR(ten_pass / one_pass, 10.0, 0.5);
    // Sustained rate lands in the published few-GE/s band.
    double rate = 1e7 / one_pass;
    EXPECT_GT(rate, 1e9);
    EXPECT_LT(rate, 8e9);
}

TEST(AsicModels, MatRaptorRunsAtTenGops)
{
    EXPECT_DOUBLE_EQ(matraptorSeconds(5e9), 1.0);
    EXPECT_DOUBLE_EQ(matraptorSeconds(1e9), 0.2);
}

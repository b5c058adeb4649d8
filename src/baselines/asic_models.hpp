/**
 * @file
 * Published-spec models of the ASIC comparison points (Table 13).
 *
 * As in the paper, each baseline is an *ideal* model built from its
 * publication: EIE holds weights entirely on-chip and processes one
 * non-zero per PE per cycle; SCNN multiplies 4 activations x 4 weights
 * per PE per cycle with utilization losses on shallow layers;
 * Graphicionado processes edges at its published streams-per-cycle rate
 * bounded by memory bandwidth; MatRaptor is taken at its highest
 * demonstrated throughput, 10 GOP/s.
 */

#pragma once

#include "sparse/types.hpp"
#include "workloads/synth.hpp"

namespace capstan::baselines {

/**
 * EIE (Han et al., ISCA 2016): 64 PEs at 800 MHz, CSC weights on-chip,
 * activation sparsity skipped. @return seconds for M * v, where M has
 * @p nnz non-zeros, with a @p vec_density-dense input vector.
 */
double eieSeconds(Index64 nnz, double vec_density);

/**
 * SCNN (Parashar et al., ISCA 2017): 64 PEs x (4 act x 4 wt) multipliers
 * at 1 GHz; utilization limited by available activations/weights per PE
 * and output-tile iterations. @return seconds for the layer.
 */
double scnnSeconds(const workloads::ConvLayer &layer);

/**
 * Graphicionado (Ham et al., MICRO 2016): 8 processing streams at
 * 1 GHz, vertex data in 64 MiB eDRAM, edges streamed from DRAM.
 * @param edges_processed Total edges touched by the algorithm.
 * @param iterations Passes over the edge list (PR iterations or
 *        traversal levels).
 */
double graphicionadoSeconds(double edges_processed, int iterations);

/**
 * MatRaptor (Srivastava et al., MICRO 2020) at its highest demonstrated
 * throughput (10 GOP/s). @param mults Multiply count of the SpMSpM.
 */
double matraptorSeconds(double mults);

} // namespace capstan::baselines


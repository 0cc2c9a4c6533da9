/**
 * @file
 * The result-format fixture: one SimResult that reaches every result
 * counter, and the golden text pinned in tests/data/result_format.txt
 * (`capture_goldens format` writes it; ReportTests compares it).
 */

#ifndef KAGURA_TESTS_FORMAT_SAMPLE_HH
#define KAGURA_TESTS_FORMAT_SAMPLE_HH

#include <string>

#include "sim/sim_result.hh"

namespace kagura
{

/**
 * A SimResult in which every counter holds a distinct nonzero value
 * (one histogram bin left zero), with tag-layout, L2 and OPTgen
 * sections all present. No simulation runs.
 */
SimResult formatSampleResult();

/**
 * The FNV-1a of formatSampleResult()'s encodeResult(), its
 * toJson(r, true), and the sorted metric list its stats structs
 * export: every byte a result counter reaches, so a field-order or
 * name slip shows.
 */
std::string resultFormatGolden();

} // namespace kagura

#endif // KAGURA_TESTS_FORMAT_SAMPLE_HH
